package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCatalogueComplete pins that every counter and phase has a unique,
// non-empty wire name: report keys are the schema, so a hole here silently
// corrupts snapshots.
func TestCatalogueComplete(t *testing.T) {
	seenC := map[string]bool{}
	for k := Counter(0); k < NumCounters; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("counter %d has no name", k)
		}
		if seenC[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seenC[name] = true
		back, ok := CounterByName(name)
		if !ok || back != k {
			t.Errorf("CounterByName(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	seenP := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" {
			t.Errorf("phase %d has no name", p)
		}
		if seenP[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seenP[name] = true
	}
	if _, ok := CounterByName("no-such-counter"); ok {
		t.Error("CounterByName accepted an unknown name")
	}
}

// TestCounterOps is the table-driven core: Add accumulates, Set overwrites,
// SetMax is a high-watermark.
func TestCounterOps(t *testing.T) {
	tests := []struct {
		name string
		ops  func(c *Collector)
		want int64
	}{
		{"add", func(c *Collector) { c.Add(CtrPops, 2); c.Add(CtrPops, 3) }, 5},
		{"add-negative", func(c *Collector) { c.Add(CtrPops, 7); c.Add(CtrPops, -2) }, 5},
		{"set-overwrites", func(c *Collector) { c.Set(CtrPops, 9); c.Set(CtrPops, 4) }, 4},
		{"setmax-raises", func(c *Collector) { c.SetMax(CtrPops, 3); c.SetMax(CtrPops, 8) }, 8},
		{"setmax-ignores-lower", func(c *Collector) { c.SetMax(CtrPops, 8); c.SetMax(CtrPops, 3) }, 8},
		{"set-then-add", func(c *Collector) { c.Set(CtrPops, 10); c.Add(CtrPops, 1) }, 11},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			tc.ops(c)
			if got := c.Get(CtrPops); got != tc.want {
				t.Errorf("got %d want %d", got, tc.want)
			}
		})
	}
}

// TestNilCollector pins the disabled-instrument contract: every method is a
// safe no-op on a nil receiver, so instrumented code never branches.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Add(CtrPops, 1)
	c.Set(CtrJoins, 2)
	c.SetMax(CtrWidenings, 3)
	c.AddPhase(PhaseFix, time.Second)
	c.Phase(PhaseParse)()
	c.StartHeapSampler(time.Millisecond)()
	if c.Get(CtrPops) != 0 || c.PhaseTime(PhaseFix) != 0 || c.PeakHeapBytes() != 0 {
		t.Error("nil collector returned nonzero readings")
	}
	r := c.Report()
	// The conditional runtime group is absent on a nil collector.
	if r.Schema != Schema || len(r.Counters) != int(NumCounters)-3 {
		t.Errorf("nil collector report malformed: %+v", r)
	}
}

// TestPhaseTimers checks accumulation across repeated phase entries.
func TestPhaseTimers(t *testing.T) {
	c := New()
	c.AddPhase(PhaseDUG, 10*time.Millisecond)
	c.AddPhase(PhaseDUG, 5*time.Millisecond)
	if got := c.PhaseTime(PhaseDUG); got != 15*time.Millisecond {
		t.Errorf("PhaseTime = %v want 15ms", got)
	}
	stop := c.Phase(PhaseFix)
	time.Sleep(2 * time.Millisecond)
	stop()
	if c.PhaseTime(PhaseFix) <= 0 {
		t.Error("Phase stop recorded no time")
	}
	r := c.Report()
	if r.TimingsNS["dug_build"] != int64(15*time.Millisecond) {
		t.Errorf("timings section: %v", r.TimingsNS)
	}
	if _, ok := r.TimingsNS["parse"]; ok {
		t.Error("never-entered phase appeared in timings")
	}
}

// TestConcurrentCounters hammers the collector from many goroutines — run
// under -race this is the safety proof for concurrent callers, and the
// summed expectation checks no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	c := New()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(CtrPops, 1)
				c.Add(CtrJoins, 2)
				c.SetMax(CtrMemPeakEntries, int64(w*perWorker+i))
				c.AddPhase(PhaseFix, time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Get(CtrPops); got != workers*perWorker {
		t.Errorf("pops = %d want %d", got, workers*perWorker)
	}
	if got := c.Get(CtrJoins); got != 2*workers*perWorker {
		t.Errorf("joins = %d want %d", got, 2*workers*perWorker)
	}
	if got := c.Get(CtrMemPeakEntries); got != workers*perWorker-1 {
		t.Errorf("setmax = %d want %d", got, workers*perWorker-1)
	}
	if got := c.PhaseTime(PhaseFix); got != workers*perWorker*time.Nanosecond {
		t.Errorf("phase time = %v", got)
	}
}

// TestReportRoundTrip pins that a report survives JSON encode/decode
// bit-for-bit: the regression harness persists and reloads these.
func TestReportRoundTrip(t *testing.T) {
	c := New()
	c.Add(CtrDUGEdges, 1234)
	c.Set(CtrAlarms, 3)
	c.AddPhase(PhaseFix, 7*time.Millisecond)
	r := c.Report()
	r.Program, r.Domain, r.Mode, r.Workers = "p.c", "interval", "sparse", 2

	b, err := r.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", *r, back)
	}
	if back.Counters["dug_edges"] != 1234 || back.Counters["alarms"] != 3 {
		t.Errorf("counters lost: %v", back.Counters)
	}
}

// TestHeapSampler checks the gauge notices a large allocation and survives
// double-stop.
func TestHeapSampler(t *testing.T) {
	c := New()
	stop := c.StartHeapSampler(time.Millisecond)
	sink = make([]byte, 32<<20)
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	if got := c.PeakHeapBytes(); got < 16<<20 {
		t.Errorf("sampler missed a 32MB allocation: peak %d", got)
	}
	sink = nil
}

var sink []byte

// TestReportStableKeySet pins that every counter appears in the report even
// when zero — snapshot diffs rely on a fixed key set. The one exception is
// the runtime group, which is present exactly when a budget was active:
// omitting it otherwise keeps ordinary runs' reports (and the committed
// baselines) byte-stable.
func TestReportStableKeySet(t *testing.T) {
	rtGroup := map[Counter]bool{CtrRuntimeCheckpoints: true, CtrRuntimeBreaches: true, CtrRuntimeDegradeSteps: true}
	r := New().Report()
	if want := int(NumCounters) - len(rtGroup); len(r.Counters) != want {
		t.Fatalf("ordinary report has %d counters, want %d", len(r.Counters), want)
	}
	for k := Counter(0); k < NumCounters; k++ {
		_, ok := r.Counters[k.String()]
		if rtGroup[k] {
			if ok {
				t.Errorf("conditional counter %s present without its trigger", k)
			}
			continue
		}
		if !ok {
			t.Errorf("counter %s missing from report", k)
		}
	}
	c := New()
	c.Set(CtrRuntimeCheckpoints, 7)
	r = c.Report()
	if len(r.Counters) != int(NumCounters) {
		t.Fatalf("full report has %d counters, catalogue has %d", len(r.Counters), NumCounters)
	}
	for k := range rtGroup {
		if _, ok := r.Counters[k.String()]; !ok {
			t.Errorf("counter %s missing from budgeted report", k)
		}
	}
}
