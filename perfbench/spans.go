package main

import (
	"sync"
	"time"

	"fourindex/internal/trace"
)

// stamp is one coarse progress event from a schedule's tracer with the
// wall time it arrived at the benchmark's listener.
type stamp struct {
	Kind  string // "span-begin", "span-end", "mark" or "restart"
	Label string
	At    time.Duration // since the op started
}

// stampRecorder is the progress listener the traced runs attach: it
// records every progress event with its arrival wall time. The tracer
// calls it synchronously from the goroutine that opened or closed the
// span, so a stamp is taken where the phase boundary happens.
type stampRecorder struct {
	mu     sync.Mutex
	start  time.Time
	stamps []stamp
}

func newStampRecorder() *stampRecorder { return &stampRecorder{start: time.Now()} }

func (r *stampRecorder) listen(ev trace.ProgressEvent) {
	at := time.Since(r.start)
	r.mu.Lock()
	r.stamps = append(r.stamps, stamp{Kind: ev.Kind, Label: ev.Label, At: at})
	r.mu.Unlock()
}

func (r *stampRecorder) events() []stamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]stamp(nil), r.stamps...)
}

// phaseWall is the measured wall time of one op's schedule phases.
type phaseWall struct {
	// Phase sums the wall seconds of every closed phase span (depth 1,
	// directly under a schedule's root span) by phase name. A phase
	// that runs once per l-slab accumulates over the slabs, and the
	// phases of an attempt the hybrid driver abandoned count too: that
	// time was spent.
	Phase map[string]float64
	// Root sums the wall seconds of the schedule root spans (depth 0),
	// one per schedule attempt.
	Root float64
	// Roots counts closed root spans; above 1 means the hybrid driver
	// fell back and ran another attempt.
	Roots int
	// Unmatched counts span events that did not pair: an end with no
	// open span, an end whose label differs from the innermost open
	// span, or a span still open when the op finished.
	Unmatched int
}

// phaseSum returns the total wall seconds of all phases.
func (p phaseWall) phaseSum() float64 {
	s := 0.0
	for _, v := range p.Phase {
		s += v
	}
	return s
}

// pairSpans pairs span-begin and span-end events into phase wall
// times. The tracer keeps its spans strictly nested (a schedule closes
// its open phase and root span even on an error path), so a stack
// pairs them; marks and restarts pass through.
func pairSpans(evs []stamp) phaseWall {
	type open struct {
		label string
		at    time.Duration
	}
	out := phaseWall{Phase: map[string]float64{}}
	var stack []open
	for _, ev := range evs {
		switch ev.Kind {
		case "span-begin":
			stack = append(stack, open{ev.Label, ev.At})
		case "span-end":
			if len(stack) == 0 {
				out.Unmatched++
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.label != ev.Label {
				out.Unmatched++
				continue
			}
			sec := (ev.At - top.at).Seconds()
			switch len(stack) {
			case 0:
				out.Root += sec
				out.Roots++
			case 1:
				out.Phase[top.label] += sec
			}
		}
	}
	out.Unmatched += len(stack)
	return out
}
