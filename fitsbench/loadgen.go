package main

import (
	"context"
	"sync"
	"time"
)

// sent is an outcome's Sent value for a job the generator never sent (the
// run was canceled first).
const notSent = time.Duration(-1)

// outcome is one open-loop job's timeline, relative to the loop's start.
type outcome struct {
	Due  time.Duration // when the schedule said to send it
	Sent time.Duration // when the generator sent it (notSent if never)
	Done time.Duration // when its handler returned
	Err  error
}

// Latency is the job's latency counted from its due time, so a stall that
// delays later sends is charged to the jobs it delayed.
func (o outcome) Latency() time.Duration { return o.Done - o.Due }

// Late is how long after its due time the generator sent the job.
func (o outcome) Late() time.Duration { return o.Sent - o.Due }

// openLoop sends job i at start+due[i] whatever happened to earlier jobs:
// an open loop, as independent users offer load. Each job runs do in its
// own goroutine. At most maxInFlight jobs run at once; when that many are
// in flight the generator waits, and the jobs it then sends late still
// count from their due times. openLoop returns once every sent job's
// handler has returned. On cancellation it stops sending; unsent jobs keep
// Sent == notSent.
func openLoop(ctx context.Context, due []time.Duration, maxInFlight int, do func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, len(due))
	for i, d := range due {
		out[i] = outcome{Due: d, Sent: notSent, Done: notSent}
	}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
send:
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break send
			case <-timer.C:
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break send
		}
		out[i].Sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := do(ctx, i)
			out[i].Done, out[i].Err = time.Since(start), err
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}
