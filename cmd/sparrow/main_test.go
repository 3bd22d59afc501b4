package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/metrics"
)

// runCLI invokes run with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunGoodInput(t *testing.T) {
	code, out, errb := runCLI(t, "testdata/good.c")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "no alarms") {
		t.Errorf("expected 'no alarms' in output, got:\n%s", out)
	}
	if !strings.Contains(out, "interval/sparse:") {
		t.Errorf("expected stats header, got:\n%s", out)
	}
}

// TestRunFrontendProblems pins the exit-code contract: every frontend
// problem — unreadable file, parse error, or a translation unit with no
// main — must exit non-zero with a diagnostic on stderr.
func TestRunFrontendProblems(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		diag string
	}{
		{"missing-file", []string{"testdata/does-not-exist.c"}, 3, "no such file"},
		{"parse-error", []string{"testdata/bad.c"}, 3, "bad.c"},
		{"no-main", []string{"testdata/nomain.c"}, 3, "no main function"},
		{"no-main-json", []string{"-stats-json", "testdata/nomain.c"}, 3, "no main function"},
		{"bad-domain", []string{"-domain", "poly", "testdata/good.c"}, 3, "unknown domain"},
		{"bad-mode", []string{"-mode", "turbo", "testdata/good.c"}, 3, "unknown mode"},
		{"bad-mem-budget", []string{"-mem-budget", "lots", "testdata/good.c"}, 2, "invalid byte count"},
		{"no-args", nil, 2, "usage"},
		{"extra-args", []string{"testdata/good.c", "testdata/good.c"}, 2, "usage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, tc.args...)
			if code != tc.want {
				t.Errorf("exit %d, want %d (stdout: %s, stderr: %s)", code, tc.want, out, errb)
			}
			if tc.diag != "" && !strings.Contains(errb, tc.diag) {
				t.Errorf("stderr %q does not mention %q", errb, tc.diag)
			}
		})
	}
}

func TestStatsJSONReport(t *testing.T) {
	code, out, errb := runCLI(t, "-stats-json", "testdata/good.c")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	var rep metrics.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out)
	}
	if rep.Schema != metrics.Schema {
		t.Errorf("schema %d, want %d", rep.Schema, metrics.Schema)
	}
	if rep.Program != "testdata/good.c" || rep.Domain != "interval" || rep.Mode != "sparse" || rep.Workers != 0 {
		t.Errorf("bad stamp: %+v", rep)
	}
	if rep.Counters["worklist_pops"] <= 0 || rep.Counters["dug_nodes"] <= 0 {
		t.Errorf("work counters not populated: %v", rep.Counters)
	}
	if len(rep.TimingsNS) == 0 {
		t.Errorf("timings section empty")
	}
	// -stats-json suppresses the human-readable output: stdout must be the
	// report alone.
	if strings.Contains(out, "no alarms") || strings.Contains(out, "times:") {
		t.Errorf("text output leaked into -stats-json mode:\n%s", out)
	}
}

// TestStatsJSONWorkerIdentity is the CLI-level determinism check: the
// counter section of -stats-json is bit-identical across two runs.
func TestStatsJSONWorkerIdentity(t *testing.T) {
	counters := func() map[string]int64 {
		code, out, errb := runCLI(t, "-stats-json", "testdata/good.c")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb)
		}
		var rep metrics.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Counters
	}
	first, again := counters(), counters()
	if !reflect.DeepEqual(first, again) {
		for k, v := range first {
			if again[k] != v {
				t.Errorf("counter %s: %d, then %d", k, v, again[k])
			}
		}
	}
}

// TestStatsJSONMatchesGate pins the exact counter gate to what users run:
// every counter the CLI reports for gen-1000 with all checkers and their
// restricted solves equals the gen-1000 interval-sparse entry of
// BENCH_sparse.json.
func TestStatsJSONMatchesGate(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_sparse.json")
	if err != nil {
		t.Fatal(err)
	}
	var gate struct {
		Entries []struct {
			Program, Domain, Mode string
			Counters              map[string]int64
		}
	}
	if err := json.Unmarshal(data, &gate); err != nil {
		t.Fatal(err)
	}
	var want map[string]int64
	for _, e := range gate.Entries {
		if e.Program == "gen-1000" && e.Domain == "interval" && e.Mode == "sparse" {
			want = e.Counters
		}
	}
	if want == nil {
		t.Fatal("no gen-1000 interval-sparse entry in BENCH_sparse.json")
	}
	f := filepath.Join(t.TempDir(), "gen-1000.c")
	if err := os.WriteFile(f, []byte(cgen.Generate(cgen.Default(43, 1000))), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-checkers", "all", "-restricted", "-stats-json", f)
	if code != 0 && code != 1 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	var rep metrics.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got, ok := rep.Counters[k]; !ok || got != v {
			t.Errorf("counter %s: CLI %d (reported %v), gate %d", k, got, ok, v)
		}
	}
	for k := range rep.Counters {
		if _, ok := want[k]; !ok {
			t.Errorf("counter %s: reported by the CLI, missing from the gate", k)
		}
	}
}

func TestAllModesExitZero(t *testing.T) {
	for _, domain := range []string{"interval", "octagon"} {
		for _, mode := range []string{"vanilla", "base", "sparse"} {
			t.Run(domain+"-"+mode, func(t *testing.T) {
				code, _, errb := runCLI(t, "-domain", domain, "-mode", mode, "testdata/good.c")
				if code != 0 {
					t.Errorf("exit %d, stderr: %s", code, errb)
				}
			})
		}
	}
}

// TestCheckersFlag pins the -checkers/-restricted surface: an uninit run
// on a buggy file reports the read (exit 1: alarms found), prints
// per-checker restriction lines, and bad specs or unsupported
// configurations exit non-zero.
func TestCheckersFlag(t *testing.T) {
	code, out, errb := runCLI(t, "-checkers", "all", "-restricted", "../../testdata/corpus/uninit.c")
	if code != 1 {
		t.Fatalf("exit %d want 1 (alarms found), stderr: %s", code, errb)
	}
	if !strings.Contains(out, "uninitialized-read") {
		t.Errorf("uninit alarm missing:\n%s", out)
	}
	if !strings.Contains(out, "restricted[uninit]:") || !strings.Contains(out, "restricted[buf]:") {
		t.Errorf("restriction statistics missing:\n%s", out)
	}

	if code, _, errb := runCLI(t, "-checkers", "bogus", "testdata/good.c"); code == 0 || !strings.Contains(errb, "unknown checker") {
		t.Errorf("bad -checkers spec: exit %d, stderr %q", code, errb)
	}
	if code, _, errb := runCLI(t, "-checkers", "uninit", "-domain", "octagon", "testdata/good.c"); code == 0 || !strings.Contains(errb, "interval-only") {
		t.Errorf("octagon+uninit: exit %d, stderr %q", code, errb)
	}
	if code, _, errb := runCLI(t, "-restricted", "-mode", "base", "testdata/good.c"); code == 0 || !strings.Contains(errb, "sparse") {
		t.Errorf("-restricted without sparse: exit %d, stderr %q", code, errb)
	}
}

// TestDefaultWorkers pins the solver surface: the report carries no
// workers stamp, and no flag selects a solver: -workers is a usage error
// (exit 2).
func TestDefaultWorkers(t *testing.T) {
	code, out, errb := runCLI(t, "-stats-json", "testdata/good.c")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if strings.Contains(out, `"workers"`) {
		t.Errorf("report carries a workers key:\n%s", out)
	}
	if code, _, errb := runCLI(t, "-workers", "1", "testdata/good.c"); code != 2 || !strings.Contains(errb, "-workers") {
		t.Errorf("-workers 1: exit %d, stderr %q (want an unknown-flag usage error, exit 2)", code, errb)
	}
}

// TestRestrictedSharedSolve pins the -restricted line of a kind that reused
// another kind's solve: on overruns.c the buffer-overrun and null checkers
// close to the same universe, so null prints solve=shared(buf) where an own
// solve prints its duration, and the rest of the line is unchanged.
func TestRestrictedSharedSolve(t *testing.T) {
	code, out, errb := runCLI(t, "-checkers", "all", "-restricted", "../../testdata/corpus/overruns.c")
	if code != 1 {
		t.Fatalf("exit %d want 1 (alarms found), stderr: %s", code, errb)
	}
	for _, line := range []string{
		`restricted\[buf\]: locs=7 triples=32/49 \(65\.3%\) solve=[0-9.]+[µnm]?s alarms=2`,
		`restricted\[null\]: locs=7 triples=32/49 \(65\.3%\) solve=shared\(buf\) alarms=1`,
		`restricted\[div\]: locs=2 triples=16/49 \(32\.7%\) solve=[0-9.]+[µnm]?s alarms=0`,
		`restricted\[uninit\]: locs=10 triples=47/49 \(95\.9%\) solve=[0-9.]+[µnm]?s alarms=0`,
	} {
		if !regexp.MustCompile(`(?m)^` + line + `$`).MatchString(out) {
			t.Errorf("no line matching %s in:\n%s", line, out)
		}
	}
}

// TestRestrictedAgreesWithDefault is a generated program on which the
// restricted buffer-overrun solve reports two alarms. Under the CLI
// defaults the alarm list and the restricted count must agree.
func TestRestrictedAgreesWithDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen3000.c")
	if err := os.WriteFile(path, []byte(cgen.Generate(cgen.Default(22<<16|4, 3000))), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-checkers", "all", "-restricted", path)
	if code != 1 {
		t.Fatalf("exit %d want 1 (alarms found), stderr: %s", code, errb)
	}
	if !regexp.MustCompile(`(?m)^restricted\[buf\]: .* alarms=2$`).MatchString(out) {
		t.Errorf("restricted[buf] does not report 2 alarms:\n%s", out)
	}
	if n := strings.Count(out, ": buffer-overrun: "); n != 2 || !strings.Contains(out, "2 alarm(s):") {
		t.Errorf("alarm list has %d buffer overruns, want 2:\n%s", n, out)
	}
}

// TestBudgetFlags pins the resource-limit surface: an impossible deadline
// exits 4 with a diagnostic (after exhausting the degradation ladder), and
// -no-degrade fails on the first breach. A generous deadline changes
// nothing: exit 0 and no degradation notice.
func TestBudgetFlags(t *testing.T) {
	code, _, errb := runCLI(t, "-timeout", "1ns", "testdata/good.c")
	if code != 4 {
		t.Fatalf("impossible deadline: exit %d want 4, stderr: %s", code, errb)
	}
	if !strings.Contains(errb, "deadline") {
		t.Errorf("stderr %q does not mention the deadline", errb)
	}
	if code, _, errb := runCLI(t, "-timeout", "1ns", "-no-degrade", "testdata/good.c"); code != 4 || strings.Contains(errb, "degrading") {
		t.Errorf("-no-degrade: exit %d, stderr %q", code, errb)
	}
	if code, out, errb := runCLI(t, "-timeout", "1h", "-mem-budget", "4G", "testdata/good.c"); code != 0 || errb != "" {
		t.Errorf("generous budget: exit %d, stderr %q, stdout %q", code, errb, out)
	}
}
