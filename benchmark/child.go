package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"sparrow/internal/metrics"
)

// childRun is one CLI process: its cost as the operating system measured it
// and the -stats-json report it printed.
type childRun struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	rssKB int64         // peak resident set size
	exit  int
	// rep is the parsed report of a run that exited 0 or 1, else nil.
	rep    *metrics.Report
	stderr string
}

// childEnv is this process's environment without GOMAXPROCS, so the CLI runs
// with the runtime's default and its -workers default follows the core count.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

// spawner runs the CLI through the spawn program (see spawn/main.go), which
// keeps this process's own memory out of the children's peak RSS.
type spawner struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startSpawner starts spawn for `bin -stats-json <flags> file` runs.
func startSpawner(spawn, bin string, flags []string) (*spawner, error) {
	cmd := exec.Command(spawn, append([]string{bin}, flags...)...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spawner{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// run has spawn run the CLI on path and waits for the result. The error is
// for a CLI that could not be run at all; how the run ended is for
// checkChild to judge.
func (s *spawner) run(path string) (childRun, error) {
	var r childRun
	if _, err := fmt.Fprintln(s.in, path); err != nil {
		return r, fmt.Errorf("spawn: %w", err)
	}
	var nout, nerr int
	if _, err := fmt.Fscanln(s.out, &r.wall, &r.cpu, &r.rssKB, &r.exit, &nout, &nerr); err != nil {
		return r, fmt.Errorf("spawn: %w", err)
	}
	buf := make([]byte, nout+nerr)
	if _, err := io.ReadFull(s.out, buf); err != nil {
		return r, fmt.Errorf("spawn: %w", err)
	}
	r.stderr = strings.TrimSpace(string(buf[nout:]))
	if r.exit == 0 || r.exit == 1 {
		rep := new(metrics.Report)
		if json.Unmarshal(buf[:nout], rep) == nil {
			r.rep = rep
		}
	}
	return r, nil
}

// stop ends spawn and waits for it to exit.
func (s *spawner) stop() {
	_ = s.in.Close() // spawn exits at the end of its input
	_ = s.cmd.Wait() // its failures surfaced as errors of run
}

// checkChild is the verdict on one CLI run: the exit code agrees with the
// alarm count, the requested domain and mode ran undegraded, and corpus
// files report the buffer-overrun and null-dereference counts of their
// verdict table.
func checkChild(w workload, in input, r childRun) error {
	if r.rep == nil {
		return fmt.Errorf("%s: exit %d without a report: %s", in.name, r.exit, r.stderr)
	}
	alarms := r.rep.Counters["alarms"]
	want := 0
	if alarms > 0 {
		want = 1
	}
	if r.exit != want {
		return fmt.Errorf("%s: exit %d with %d alarms", in.name, r.exit, alarms)
	}
	if r.rep.Domain != w.domain.String() || r.rep.Mode != w.mode.String() {
		return fmt.Errorf("%s: ran %s/%s, requested %s/%s", in.name, r.rep.Domain, r.rep.Mode, w.domain, w.mode)
	}
	if w.stmts == 0 {
		return checkVerdict(corpusVerdicts, in.name, r.rep)
	}
	return nil
}
