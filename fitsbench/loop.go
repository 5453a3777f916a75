package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// A workload sets up setupBefore times before its timed phase, keeping the
// last set-up's state for the run, and setupAfter more times after it;
// setup_s is the median of all of them. Spreading the repetitions over the
// run keeps a slow moment of a shared host from moving the figure, as the
// timed phase's own metrics are spread over the run.
const (
	setupBefore = 3
	setupAfter  = 2
)

// setupTimes are the durations of a workload's set-up repetitions.
type setupTimes []float64

// Median is the reported setup_s.
func (s setupTimes) Median() float64 { return median(s) }

func (s setupTimes) String() string {
	return fmt.Sprintf("%.3f s (median of %d: %.3f)", s.Median(), len(s), []float64(s))
}

// measureSetup runs fn repeats times and returns the durations in seconds.
// Before each repetition, untimed, reset (when non-nil) releases what the
// previous one built, and the heap is collected, so no repetition pays for
// the one before. The state fn leaves behind on its last call is the
// caller's.
func measureSetup(ctx context.Context, repeats int, reset, fn func() error) (setupTimes, error) {
	var secs setupTimes
	for i := 0; i < repeats; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if reset != nil {
			if err := reset(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// closedLoop drives one caller through rounds of n items. Each round visits
// every item once, in an order shuffled from the seed and the round
// number. The first round always completes, so per-round ground-truth
// figures cover the whole input set; later rounds run until d has passed
// since the loop started, checked before each item. It returns the number
// of items run.
func closedLoop(ctx context.Context, seed int64, n int, d time.Duration, fn func(round, item int) error) (int, error) {
	start := time.Now()
	done := 0
	for round := 0; ; round++ {
		for _, item := range shuffled(deriveSeed(seed, "order", int64(round), 0), n) {
			if err := ctx.Err(); err != nil {
				return done, err
			}
			if round > 0 && time.Since(start) >= d {
				return done, nil
			}
			if err := fn(round, item); err != nil {
				return done, err
			}
			done++
		}
		if time.Since(start) >= d {
			return done, nil
		}
	}
}
