package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fuzzFlag is one flag FuzzRun may put on a command line: a boolean flag,
// a path-taking flag, or a flag whose vals are the documented values the
// fuzzer picks from besides its own words.
type fuzzFlag struct {
	name   string
	isBool bool
	isPath bool
	vals   []string
}

// fuzzFlags is the flag surface of run: every documented flag, plus unknown
// ones (the removed -no-degrade and -workers among them), which must be
// usage errors.
var fuzzFlags = []fuzzFlag{
	{name: "domain", vals: []string{"interval", "octagon"}},
	{name: "mode", vals: []string{"vanilla", "base", "sparse"}},
	{name: "checkers", vals: []string{"buf", "null,div", "uninit", "all", ""}},
	{name: "restricted", isBool: true},
	{name: "duchains", isBool: true},
	{name: "nobypass", isBool: true},
	{name: "narrow", vals: []string{"0", "1", "2", "-1"}},
	{name: "timeout", vals: []string{"0", "1ns", "1ms", "1s", "-1s"}},
	{name: "mem-budget", vals: []string{"", "1", "64K", "512M", "4G"}},
	{name: "no-degrade", isBool: true},
	{name: "cpuprofile", isPath: true},
	{name: "memprofile", isPath: true},
	{name: "globals", isBool: true},
	{name: "stats", isBool: true},
	{name: "stats-json", isBool: true},
	{name: "dump-dug", isPath: true},
	{name: "dump-ir", isBool: true},
	{name: "workers", vals: []string{"0", "1", "4"}},
	{name: "bogus", vals: []string{"x"}},
}

// maxNarrow and maxTimeout keep one fuzz input well under a second.
const (
	maxNarrow  = 3
	maxTimeout = 100 * time.Millisecond
)

// clampValue bounds the values of -narrow and -timeout; every other value
// passes through.
func clampValue(name, v string) string {
	switch name {
	case "narrow":
		var n int
		if _, err := fmt.Sscan(v, &n); err == nil && n > maxNarrow {
			return fmt.Sprint(maxNarrow)
		}
	case "timeout":
		if d, err := time.ParseDuration(v); err == nil && d > maxTimeout {
			return maxTimeout.String()
		}
	}
	return v
}

// FuzzRun drives the CLI's run with argument vectors built from the flag
// surface: each pick byte chooses a flag and the next one its value, taken
// from the flag's documented values or the fuzzed words (one per line).
// Path-taking flags are rewritten into a per-input temporary directory,
// where they name a missing file, a directory, or a file holding the fuzzed
// words. run must return a documented exit code (0–4)
// and never panic.
func FuzzRun(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{0, 1, 1, 2}, "")
	f.Add([]byte{10, 0, 6, 1}, "")
	f.Add([]byte{14, 0}, "")
	f.Add([]byte{2, 3, 3, 0, 11, 0}, "")
	f.Add([]byte{17, 1}, "")
	f.Add([]byte{7, 5, 9, 0}, "3ms\n1G")
	f.Add([]byte{15, 2}, "{")
	f.Fuzz(func(t *testing.T, picks []byte, text string) {
		dir := t.TempDir()
		words := strings.Split(text, "\n")
		if err := os.WriteFile(filepath.Join(dir, "words"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, "dir"), 0o755); err != nil {
			t.Fatal(err)
		}
		paths := []string{"missing", "dir", "words"}

		var args []string
		for i := 0; i < len(picks); i += 2 {
			fl := fuzzFlags[int(picks[i])%len(fuzzFlags)]
			v := 0
			if i+1 < len(picks) {
				v = int(picks[i+1])
			}
			switch {
			case fl.isBool:
				// -name, or -name=value with a valid or invalid boolean.
				choices := append([]string{"", "true", "false"}, words...)
				if c := choices[v%len(choices)]; c == "" {
					args = append(args, "-"+fl.name)
				} else {
					args = append(args, "-"+fl.name+"="+c)
				}
			case fl.isPath:
				args = append(args, "-"+fl.name+"="+filepath.Join(dir, paths[v%len(paths)]))
			default:
				choices := append(append([]string(nil), fl.vals...), words...)
				args = append(args, "-"+fl.name+"="+clampValue(fl.name, choices[v%len(choices)]))
			}
		}
		args = append(args, "testdata/good.c")
		if len(picks)%2 == 1 {
			// An odd pick count adds a stray positional argument.
			args = append(args, words[0])
		}
		if code := run(args, io.Discard, io.Discard); code < exitClean || code > exitBudget {
			t.Fatalf("%q: exit %d, want one of the documented codes 0-4", args, code)
		}
	})
}
