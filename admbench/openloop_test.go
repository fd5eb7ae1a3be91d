package main

import (
	"testing"
	"time"
)

// fakeClock is a clock that moves only when the generator sleeps, plus
// one injected stall.
type fakeClock struct {
	now     time.Time
	stallAt int           // the sleep call that overruns
	stall   time.Duration // by how much
	sleeps  int
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now = c.now.Add(d)
	if c.sleeps == c.stallAt {
		c.now = c.now.Add(c.stall)
	}
}

func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := &fakeClock{now: start, stallAt: 3, stall: 10 * time.Millisecond}
	g := openLoop{rate: 1000, n: 20, now: clock.Now, sleep: clock.Sleep}
	type sent struct {
		due, at time.Time
	}
	var got []sent
	late := g.run(start, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		got = append(got, sent{due, clock.Now()})
	})
	if len(got) != 20 {
		t.Fatalf("dispatched %d requests, want 20", len(got))
	}
	// Requests 0-2 go out on time. The third sleep, aimed at request 3's
	// due time (3ms), overruns by 10ms: every request due by 13ms leaves
	// in one burst at 13ms, each charged from its own due time.
	for i, s := range got {
		wantAt := s.due
		if i >= 3 && i <= 13 {
			wantAt = start.Add(13 * time.Millisecond)
		}
		if !s.at.Equal(wantAt) {
			t.Errorf("request %d sent at %v, want %v", i, s.at.Sub(start), wantAt.Sub(start))
		}
		if late[i] != s.at.Sub(s.due) {
			t.Errorf("request %d lateness %v, want %v", i, late[i], s.at.Sub(s.due))
		}
	}
	if late[3] != 10*time.Millisecond || late[13] != 0 || late[14] != 0 {
		t.Errorf("lateness around the stall = %v, %v, %v", late[3], late[13], late[14])
	}
	// One wake-up sent the burst: after the stall the generator sleeps
	// once per remaining request, not once per overdue one.
	if want := 3 + (19 - 13); clock.sleeps != want {
		t.Errorf("generator slept %d times, want %d", clock.sleeps, want)
	}
}
