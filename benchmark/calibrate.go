package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on change speed by up to a half over
// minutes, and the CLI's times move with them. A fixed reference load,
// timed in this process between CLI runs, moves the same way: over six
// minutes of 15 s windows on a 2-core VM, the median CLI time of a
// 3000-statement program spread 17% (interquartile range over median) and
// its ratio to the reference's median 3.5%; for a small corpus file, where
// process start dominates, 14% and 3.2%. So every time the benchmark
// reports is scaled by refNominalS over the run's reference median: it
// reads as the time on a machine that runs the reference in refNominalS.
// results.json keeps the scale, so raw times can be recovered.
const refNominalS = 0.025

// refInterval is how often the reference runs while a run measures.
const refInterval = 250 * time.Millisecond

// reference times fixed work on every core at once, as the CLI's default
// worker count and its garbage collector use them all. Like the analyzer,
// the work hashes into a map, appends and sorts.
func reference() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	sink := make([]int, runtime.NumCPU())
	for g := range sink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := map[int]int{}
			x := uint64(88172645463325252)
			s := make([]int, 0, 1<<16)
			for i := 0; i < 300000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				m[int(x%100000)] += i
				if i%4 == 0 {
					s = append(s, int(x>>20))
				}
			}
			sort.Ints(s)
			sink[g] = len(m) + s[len(s)/2]
		}()
	}
	wg.Wait()
	refSink = sink
	return time.Since(t0)
}

// refSink keeps the reference's results alive, so the work is not removed.
var refSink []int

// calibration collects the reference times of a run.
type calibration struct {
	samples []float64
	last    time.Time
}

func (c *calibration) measure() {
	c.samples = append(c.samples, reference().Seconds())
	c.last = time.Now()
}

// maybe measures when refInterval has passed since the last measurement.
func (c *calibration) maybe() {
	if time.Since(c.last) >= refInterval {
		c.measure()
	}
}

// scale is the factor that turns this run's times into reference-speed
// times.
func (c *calibration) scale() float64 {
	return refNominalS / summarize(c.samples).Median
}
