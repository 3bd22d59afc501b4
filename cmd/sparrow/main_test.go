package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// counter section of -stats-json is bit-identical across two runs of the
// default global worklist, and across two runs of the component solver
// (selected by -snapshot-out, into a fresh snapshot each time).
func TestStatsJSONWorkerIdentity(t *testing.T) {
	counters := func(args ...string) map[string]int64 {
		args = append(append([]string{"-stats-json"}, args...), "testdata/good.c")
		code, out, errb := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb)
		}
		var rep metrics.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return rep.Counters
	}
	dir := t.TempDir()
	for _, cfg := range []struct {
		name        string
		first, then []string
	}{
		{"global worklist", nil, nil},
		{"components", []string{"-snapshot-out", filepath.Join(dir, "a.json")}, []string{"-snapshot-out", filepath.Join(dir, "b.json")}},
	} {
		first, again := counters(cfg.first...), counters(cfg.then...)
		if !reflect.DeepEqual(first, again) {
			for k, v := range first {
				if again[k] != v {
					t.Errorf("%s: counter %s: %d, then %d", cfg.name, k, v, again[k])
				}
			}
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

// TestSnapshotFlags drives the incremental-analysis CLI flow end to end:
// cold solve with -snapshot-out, edit the file, warm solve with -snapshot-in,
// and check the warm run hits the cache while producing the same analysis
// text (everything except the timing and incremental lines) as a cold solve
// of the edited file.
func TestSnapshotFlags(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")

	code, out, errb := runCLI(t, "-snapshot-out", snap, "testdata/good.c")
	if code != 0 {
		t.Fatalf("cold: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "incremental: hits=") {
		t.Errorf("cold run missing incremental stats line:\n%s", out)
	}

	// Edit: shrink the loop bound. The analysis of the edited file changes,
	// so a stale replay would be visible in the invariants.
	src, err := os.ReadFile("testdata/good.c")
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(src), "i < 4", "i < 3", 1)
	if edited == string(src) {
		t.Fatal("edit was a no-op")
	}
	editedPath := filepath.Join(dir, "good_edited.c")
	if err := os.WriteFile(editedPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	// analysisLines strips the run-dependent lines (timings, the incremental
	// stats, file paths) so warm and cold text output can be compared.
	analysisLines := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "times:") || strings.HasPrefix(line, "incremental:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}

	codeW, outW, errbW := runCLI(t, "-snapshot-in", snap, "-globals", editedPath)
	if codeW != 0 {
		t.Fatalf("warm: exit %d, stderr: %s", codeW, errbW)
	}
	// The cold run uses the component solver that the warm run replays:
	// -snapshot-out into a fresh snapshot selects it.
	codeC, outC, errbC := runCLI(t, "-snapshot-out", filepath.Join(dir, "cold.json"), "-globals", editedPath)
	if codeC != 0 {
		t.Fatalf("cold edited: exit %d, stderr: %s", codeC, errbC)
	}
	if got, want := analysisLines(outW), analysisLines(outC); got != want {
		t.Errorf("warm output diverged from cold:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
	var hits, misses, resolved, cached int
	for _, line := range strings.Split(outW, "\n") {
		if strings.HasPrefix(line, "incremental:") {
			if _, err := fmt.Sscanf(line, "incremental: hits=%d misses=%d resolved=%d cached=%d",
				&hits, &misses, &resolved, &cached); err != nil {
				t.Fatalf("unparseable incremental line %q: %v", line, err)
			}
		}
	}
	if hits == 0 {
		t.Errorf("warm run on a one-line edit recorded no cache hits:\n%s", outW)
	}

	// -stats-json on an incremental run must carry the incr counter group.
	code, out, errb = runCLI(t, "-stats-json", "-snapshot-in", snap, editedPath)
	if code != 0 {
		t.Fatalf("warm json: exit %d, stderr: %s", code, errb)
	}
	var rep metrics.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, out)
	}
	if rep.Counters["incr_components_hit"] <= 0 {
		t.Errorf("incr counters missing from report: %v", rep.Counters)
	}
	if _, ok := rep.TimingsNS["incr"]; !ok {
		t.Errorf("incr phase timing missing: %v", rep.TimingsNS)
	}

	// Error paths: unreadable snapshot, corrupt snapshot, and configurations
	// the incremental solver rejects.
	if code, _, errb := runCLI(t, "-snapshot-in", filepath.Join(dir, "nope.json"), "testdata/good.c"); code != 3 || !strings.Contains(errb, "no such file") {
		t.Errorf("missing snapshot: exit %d, stderr %q", code, errb)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := runCLI(t, "-snapshot-in", filepath.Join(dir, "corrupt.json"), "testdata/good.c"); code != 3 || !strings.Contains(errb, "corrupt snapshot") {
		t.Errorf("corrupt snapshot: exit %d, stderr %q", code, errb)
	}
	for _, args := range [][]string{
		{"-snapshot-in", snap, "-mode", "base", "testdata/good.c"},
		{"-snapshot-in", snap, "-domain", "octagon", "testdata/good.c"},
		{"-snapshot-in", snap, "-duchains", "testdata/good.c"},
		{"-snapshot-in", snap, "-checkers", "uninit", "testdata/good.c"},
		{"-snapshot-in", snap, "-narrow", "2", "testdata/good.c"},
	} {
		if code, _, errb := runCLI(t, args...); code != 3 {
			t.Errorf("%v: exit %d, stderr %q (want rejection, exit 3)", args, code, errb)
		}
	}
}

// TestDefaultWorkers pins the solver choice: a plain run uses the sequential
// global worklist (Workers 0), and -snapshot-in/-snapshot-out select the
// component solver that incremental replay records (Workers 1). No flag
// selects the solver: -workers is a usage error (exit 2).
func TestDefaultWorkers(t *testing.T) {
	workers := func(args ...string) int {
		t.Helper()
		code, out, errb := runCLI(t, append([]string{"-stats-json"}, args...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb)
		}
		var rep metrics.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return rep.Workers
	}
	if w := workers("testdata/good.c"); w != 0 {
		t.Errorf("default run: workers=%d, want 0", w)
	}
	snap := filepath.Join(t.TempDir(), "s.json")
	if w := workers("-snapshot-out", snap, "testdata/good.c"); w != 1 {
		t.Errorf("-snapshot-out: workers=%d, want 1", w)
	}
	if w := workers("-snapshot-in", snap, "testdata/good.c"); w != 1 {
		t.Errorf("-snapshot-in: workers=%d, want 1", w)
	}
	if code, _, errb := runCLI(t, "-workers", "1", "testdata/good.c"); code != 2 || !strings.Contains(errb, "-workers") {
		t.Errorf("-workers 1: exit %d, stderr %q (want an unknown-flag usage error, exit 2)", code, errb)
	}
}

// TestComponentsStatsLine pins the -stats line of the component solver on
// one corpus file: a -snapshot-out run prints the partition and the wave
// count, and the default global worklist prints none.
func TestComponentsStatsLine(t *testing.T) {
	const file = "../../testdata/corpus/workqueue.c"
	const want = "components: n=91 maxcomp=10 islands=37 rounds=7\n"
	code, out, errb := runCLI(t, "-snapshot-out", filepath.Join(t.TempDir(), "s.json"), "-stats", file)
	if code != 0 {
		t.Fatalf("-snapshot-out: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, want) {
		t.Errorf("-snapshot-out: missing %q in:\n%s", want, out)
	}
	_, out, _ = runCLI(t, "-stats", file)
	if strings.Contains(out, "components:") {
		t.Errorf("default run printed a components line:\n%s", out)
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
// component solver (what -snapshot-in/-snapshot-out select) widens
// elsewhere than the global worklist and reports no alarms, while the restricted buffer-overrun solve
// reports two. Under the CLI defaults the alarm list and the restricted
// count must agree.
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
