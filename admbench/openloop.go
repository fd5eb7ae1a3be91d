package main

import "time"

// openLoop sends n requests at a fixed rate regardless of how fast they
// complete: request i is due at start + i/rate. On every wake-up it
// dispatches every request already due, so a late wake-up (a stall, a
// coarse timer) sends a burst rather than stretching the schedule; each
// request is later timed from its due time, which charges the stall to
// every request it delayed.
type openLoop struct {
	rate  float64 // requests per second
	n     int
	now   func() time.Time
	sleep func(time.Duration)
}

// due returns when request i is due.
func (g *openLoop) due(start time.Time, i int) time.Time {
	return start.Add(time.Duration(float64(i) / g.rate * float64(time.Second)))
}

// run dispatches the n requests from start and returns each request's
// lateness: how long after its due time the generator sent it.
func (g *openLoop) run(start time.Time, dispatch func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, g.n)
	for i := 0; i < g.n; {
		now := g.now()
		for ; i < g.n; i++ {
			due := g.due(start, i)
			if due.After(now) {
				break
			}
			late[i] = now.Sub(due)
			dispatch(i, due)
		}
		if i < g.n {
			g.sleep(g.due(start, i).Sub(now))
		}
	}
	return late
}
