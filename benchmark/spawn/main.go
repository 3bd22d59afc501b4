// Command spawn runs sparrow CLI processes for the benchmark and reports
// what each cost.
//
// A child's peak RSS, as the kernel reports it, is at least the peak RSS of
// the process that started it: exec records the high-water mark of the
// address space it replaces, and a child that Go starts shares its parent's
// until then. The benchmark grows to hundreds of megabytes in traced passes,
// so it runs the CLI through this program, which stays a few megabytes
// small and does nothing else.
//
// Usage:
//
//	spawn sparrow [flags...]
//
// For each file path read from standard input, one per line, spawn runs
// `sparrow -stats-json [flags...] path`, waits for it, and writes one line
//
//	wall_ns cpu_ns maxrss_kb exit stdout_len stderr_len
//
// followed by the run's standard output and standard error. It exits at the
// end of its input.
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// timeout bounds one CLI run; the slowest workload file takes a few seconds.
const timeout = 60 * time.Second

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: spawn sparrow [flags...]")
		os.Exit(2)
	}
	// One thread and a small heap target keep this process's RSS, and so
	// the floor under every child's, near the Go runtime's own few
	// megabytes. The children still see the machine's core count.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(10)
	if err := serve(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "spawn:", err)
		os.Exit(1)
	}
}

func serve(bin string, flags []string) error {
	// The CLI writes into two files this process reads back, so that no
	// copying goroutines or pipe buffers grow its memory.
	dir, err := os.MkdirTemp("", "spawn")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		if err := runOne(out, dir, bin, flags, in.Text()); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return in.Err()
}

func runOne(out *bufio.Writer, dir, bin string, flags []string, path string) error {
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return err
	}
	defer stderr.Close()
	argv := append(append([]string{bin, "-stats-json"}, flags...), path)
	t0 := time.Now()
	p, err := os.StartProcess(bin, argv, &os.ProcAttr{Files: []*os.File{nil, stdout, stderr}})
	if err != nil {
		return err
	}
	kill := time.AfterFunc(timeout, func() { p.Kill() })
	st, err := p.Wait()
	wall := time.Since(t0)
	timedOut := !kill.Stop()
	if err != nil {
		return err
	}
	if timedOut {
		fmt.Fprintf(stderr, "killed after %v", timeout)
	}
	o, err := os.ReadFile(stdout.Name())
	if err != nil {
		return err
	}
	e, err := os.ReadFile(stderr.Name())
	if err != nil {
		return err
	}
	ru := st.SysUsage().(*syscall.Rusage)
	fmt.Fprintf(out, "%d %d %d %d %d %d\n", wall.Nanoseconds(), ru.Utime.Nano()+ru.Stime.Nano(),
		ru.Maxrss, st.ExitCode(), len(o), len(e))
	out.Write(o)
	out.Write(e)
	return nil
}
