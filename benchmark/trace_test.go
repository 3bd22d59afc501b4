package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "pass", Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Name: "a", Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Name: "b", Parent: 0, StartNS: 20, EndNS: 50},  // overlaps a: 10..50 is covered once
		{ID: 3, Name: "c", Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent: only 90..100 counts
		{ID: 4, Name: "d", Parent: 2, StartNS: 25, EndNS: 35},
	}
	want := map[int]int64{0: 100 - 40 - 10, 1: 20, 2: 30 - 10, 3: 30, 4: 10}
	got := selfNS(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %d, want %d", spans[id].Name, got[id], w)
		}
	}
}

func TestProgramSpansBackToBack(t *testing.T) {
	tr := newTracer()
	tr.spans = append(tr.spans, span{ID: 0, Name: "analyze", Pass: 2, Parent: -1, StartNS: 1000, EndNS: 2000, Source: "outside"})
	tr.program(0, []string{"prean", "dug_build", "fixpoint"}, []time.Duration{100, 0, 300})
	want := []span{
		{ID: 1, Name: "prean", Pass: 2, Parent: 0, StartNS: 1000, EndNS: 1100, Source: "program"},
		{ID: 2, Name: "fixpoint", Pass: 2, Parent: 0, StartNS: 1100, EndNS: 1400, Source: "program"},
	}
	if len(tr.spans) != 3 || tr.spans[1] != want[0] || tr.spans[2] != want[1] {
		t.Fatalf("program spans = %+v, want %+v", tr.spans[1:], want)
	}
	if self := selfNS(tr.spans)[0]; self != 600 {
		t.Errorf("self(analyze) = %d, want 600", self)
	}
}
