package sparrow_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparrow"
	"sparrow/internal/check"
	"sparrow/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics reports")

// goldenPrograms are the corpus members whose full counter sections are
// pinned: they cover the frontend features most likely to disturb the
// counters (function-pointer dispatch, switch lowering, goto loops) plus
// the uninitialized-read program, whose golden exercises the per-kind
// alarm and restricted-graph counters.
var goldenPrograms = []string{"fpdispatch", "switchcase", "gotoloop", "uninit"}

// goldenReport is the committed shape: configuration stamp + the complete
// deterministic counter section. Timings and heap are omitted by design.
type goldenReport struct {
	Schema   int              `json:"schema"`
	Program  string           `json:"program"`
	Domain   string           `json:"domain"`
	Mode     string           `json:"mode"`
	Counters map[string]int64 `json:"counters"`
}

func collectGolden(t *testing.T, name string) goldenReport {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "corpus", name+".c"))
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New()
	res, err := sparrow.AnalyzeSource(name+".c", string(src), sparrow.Options{
		Domain:   sparrow.Interval,
		Mode:     sparrow.Sparse,
		Metrics:  col,
		Checkers: check.AllKinds,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Alarms()
	// Per-checker restricted solves fill the restr_* size counters.
	for _, k := range check.AllKinds {
		if _, err := res.AnalyzeChecker(k); err != nil {
			t.Fatal(err)
		}
	}
	rep := res.MetricsReport()
	return goldenReport{
		Schema:   rep.Schema,
		Program:  name,
		Domain:   rep.Domain,
		Mode:     rep.Mode,
		Counters: rep.Counters,
	}
}

// TestMetricsGolden pins the complete counter section of the sparse
// interval analyzer on three corpus programs. A diff here means the
// engine's work profile changed: either fix the regression or, if the
// change is intended, regenerate with `go test -run TestMetricsGolden
// -update .` and review the counter movement in the diff.
func TestMetricsGolden(t *testing.T) {
	for _, name := range goldenPrograms {
		t.Run(name, func(t *testing.T) {
			got := collectGolden(t, name)
			path := filepath.Join("testdata", "golden", "metrics", name+".json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (regenerate with -update): %v", err)
			}
			var want goldenReport
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			if got.Schema != want.Schema || got.Domain != want.Domain || got.Mode != want.Mode {
				t.Errorf("stamp drift: got %+v, want %+v", got, want)
			}
			if !reflect.DeepEqual(got.Counters, want.Counters) {
				for k, v := range want.Counters {
					if got.Counters[k] != v {
						t.Errorf("counter %s: got %d, want %d", k, got.Counters[k], v)
					}
				}
				for k, v := range got.Counters {
					if _, ok := want.Counters[k]; !ok {
						t.Errorf("counter %s=%d not in golden file (regenerate with -update)", k, v)
					}
				}
			}
		})
	}
}
