package bench

import (
	"path/filepath"
	"reflect"
	"testing"
)

// tinySuite keeps unit runs cheap: two corpus programs, all six configs.
func tinySuite(t *testing.T) []Program {
	t.Helper()
	progs, err := CorpusPrograms(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) < 2 {
		t.Fatalf("corpus too small: %d", len(progs))
	}
	return progs[:2]
}

func TestCollectDeterministic(t *testing.T) {
	progs := tinySuite(t)
	a, err := Collect(progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(a, b, 0); len(diffs) != 0 {
		t.Errorf("back-to-back runs differ:\n%v", diffs)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots not deeply equal")
	}
	if len(a.Entries) != len(progs)*len(Configs()) {
		t.Errorf("%d entries, want %d", len(a.Entries), len(progs)*len(Configs()))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	progs := tinySuite(t)
	snap, err := Collect(progs[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, loaded) {
		t.Errorf("round trip changed the snapshot")
	}
}

func TestCompareDetectsDrift(t *testing.T) {
	progs := tinySuite(t)
	base, err := Collect(progs[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb one counter: the exact gate must fire, a loose tolerance not.
	got := &Snapshot{Schema: base.Schema}
	for _, e := range base.Entries {
		ne := e
		ne.Counters = make(map[string]int64, len(e.Counters))
		for k, v := range e.Counters {
			ne.Counters[k] = v
		}
		got.Entries = append(got.Entries, ne)
	}
	got.Entries[0].Counters["worklist_pops"]++
	if diffs := Compare(base, got, 0); len(diffs) != 1 {
		t.Errorf("exact compare: %d diffs, want 1: %v", len(diffs), diffs)
	}
	if diffs := Compare(base, got, 0.5); len(diffs) != 0 {
		t.Errorf("tolerant compare fired: %v", diffs)
	}
	// Missing entry.
	missing := &Snapshot{Schema: base.Schema, Entries: got.Entries[1:]}
	if diffs := Compare(base, missing, 0.5); len(diffs) == 0 {
		t.Errorf("missing entry not reported")
	}
	// Schema drift short-circuits.
	if diffs := Compare(base, &Snapshot{Schema: base.Schema + 1}, 0); len(diffs) != 1 {
		t.Errorf("schema drift: %v", diffs)
	}
}

func TestGeneratedProgramsStable(t *testing.T) {
	a, b := GeneratedPrograms(), GeneratedPrograms()
	for i := range a {
		if a[i].Src != b[i].Src {
			t.Errorf("%s: generator not reproducible", a[i].Name)
		}
	}
}
