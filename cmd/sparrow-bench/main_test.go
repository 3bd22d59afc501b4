package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// runCLI invokes run with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestWriteThenCheck exercises the full loop on a two-file corpus: write a
// snapshot, then -check against it (must pass: counters are deterministic).
func TestWriteThenCheck(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	writeCorpus(t, corpus)
	snap := filepath.Join(dir, "snap.json")

	code, out, errb := runCLI(t, "-gen=false", "-corpus", corpus, "-out", snap)
	if code != 0 {
		t.Fatalf("write: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "wrote") {
		t.Errorf("write output: %s", out)
	}
	code, out, errb = runCLI(t, "-gen=false", "-corpus", corpus, "-check", "-snapshot", snap)
	if code != 0 {
		t.Fatalf("check: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "match") {
		t.Errorf("check output: %s", out)
	}
}

// TestCheckWritesNothing runs the gate with every path at its default in a
// directory holding only a corpus and a snapshot: writing the snapshot adds
// no other file, and -check leaves the directory as it found it.
func TestCheckWritesNothing(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, filepath.Join(dir, "testdata", "corpus"))
	t.Chdir(dir)
	if code, _, errb := runCLI(t, "-gen=false"); code != 0 {
		t.Fatalf("write: exit %d, stderr: %s", code, errb)
	}
	before := listFiles(t, dir)
	want := []string{"BENCH_sparse.json", "testdata/corpus/call.c", "testdata/corpus/loop.c"}
	if names := slices.Sorted(maps.Keys(before)); !slices.Equal(names, want) {
		t.Fatalf("after the write the directory holds %v, want %v", names, want)
	}
	if code, _, errb := runCLI(t, "-gen=false", "-check"); code != 0 {
		t.Fatalf("check: exit %d, stderr: %s", code, errb)
	}
	if after := listFiles(t, dir); !maps.Equal(before, after) {
		t.Errorf("-check changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// listFiles maps every regular file under dir, by slash-separated relative
// path, to its size and modification time.
func listFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = fmt.Sprintf("%d bytes, %v", info.Size(), info.ModTime())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCheckDetectsRegression tampers with the baseline and expects exit 1.
func TestCheckDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	writeCorpus(t, corpus)
	snap := filepath.Join(dir, "snap.json")
	if code, _, errb := runCLI(t, "-gen=false", "-corpus", corpus, "-out", snap); code != 0 {
		t.Fatalf("write failed: %s", errb)
	}
	tamper(t, snap)
	code, _, errb := runCLI(t, "-gen=false", "-corpus", corpus, "-check", "-snapshot", snap)
	if code != 1 {
		t.Fatalf("check on tampered baseline: exit %d, want 1 (stderr: %s)", code, errb)
	}
	if !strings.Contains(errb, "regression") {
		t.Errorf("stderr: %s", errb)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "positional"); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-corpus", "does-not-exist"); code != 2 {
		t.Errorf("bad corpus: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-check", "-snapshot", "does-not-exist.json", "-corpus", "does-not-exist"); code != 2 {
		t.Errorf("bad snapshot: exit %d, want 2", code)
	}
	// The report-only timing flags are gone: each is an unknown flag.
	for _, args := range [][]string{{"-times", "x"}, {"-timings"}, {"-compare", "a", "b"}, {"-tol", "0.1"}} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
