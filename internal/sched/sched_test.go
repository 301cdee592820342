package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestSingleThreadRuns(t *testing.T) {
	ran := false
	if err := New(1, 0).Run(func(th *Thread) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("main did not run")
	}
}

func TestSpawnAndJoin(t *testing.T) {
	var order []string
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			order = append(order, "child")
		})
		th.Join(child)
		order = append(order, "parent-after-join")
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "child,parent-after-join" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyThreadsAllRun(t *testing.T) {
	const n = 50
	ran := make([]bool, n)
	err := New(7, 0).Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < n; i++ {
			i := i
			kids = append(kids, th.Spawn(func(c *Thread) {
				c.Yield()
				ran[i] = true
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("thread %d did not run", i)
		}
	}
}

// runFourByFive runs 4 threads of 5 logged yields each on s and returns the
// interleaving ("thread.iteration" entries) and the final step count.
func runFourByFive(t *testing.T, s *Scheduler) (string, uint64) {
	t.Helper()
	var log []string
	err := s.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < 4; i++ {
			i := i
			kids = append(kids, th.Spawn(func(c *Thread) {
				for j := 0; j < 5; j++ {
					log = append(log, fmt.Sprintf("%d.%d", i, j))
					c.Yield()
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(log, " "), s.Steps()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		log, _ := runFourByFive(t, New(seed, 0))
		return log
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := run(43)
	if a == c {
		t.Fatal("different seeds produced identical schedule (suspicious for 20 interleaved yields)")
	}
}

func TestInterleaving(t *testing.T) {
	// With yields, two threads must actually interleave under some seed.
	interleaved := false
	for seed := int64(0); seed < 10 && !interleaved; seed++ {
		var log []string
		err := New(seed, 0).Run(func(th *Thread) {
			a := th.Spawn(func(c *Thread) {
				for i := 0; i < 5; i++ {
					log = append(log, "a")
					c.Yield()
				}
			})
			b := th.Spawn(func(c *Thread) {
				for i := 0; i < 5; i++ {
					log = append(log, "b")
					c.Yield()
				}
			})
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		s := strings.Join(log, "")
		if strings.Contains(s, "ab") && strings.Contains(s, "ba") {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatal("no seed interleaved two yielding threads")
	}
}

func TestParkUnpark(t *testing.T) {
	var got string
	err := New(3, 0).Run(func(th *Thread) {
		var waiter *Thread
		waiter = th.Spawn(func(c *Thread) {
			c.Park("waiting for signal")
			got = "woken"
		})
		// Let the waiter park.
		for i := 0; i < 10; i++ {
			th.Yield()
		}
		th.Unpark(waiter)
		th.Join(waiter)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "woken" {
		t.Fatal("parked thread was not woken")
	}
}

func TestDeadlockDetected(t *testing.T) {
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			c.Park("forever")
		})
		th.Join(child)
	})
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestStepBound(t *testing.T) {
	err := New(1, 100).Run(func(th *Thread) {
		for {
			th.Yield()
		}
	})
	if !errors.Is(err, ErrStepBound) || !strings.Contains(err.Error(), "step bound") {
		t.Fatalf("err = %v, want step bound", err)
	}
}

func TestThreadPanicSurfaces(t *testing.T) {
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			panic("boom")
		})
		th.Join(child)
	})
	if !errors.Is(err, ErrAppPanic) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

// TestPanicThroughYieldingDefer: a thread that panics while a deferred call
// yields (the `defer c.Unlock(m)` shape of the instrumented runtime) still
// surfaces ErrAppPanic, whichever thread the deferred yield hands over to.
func TestPanicThroughYieldingDefer(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		err := New(seed, 0).Run(func(th *Thread) {
			var kids []*Thread
			for i := 0; i < 3; i++ {
				i := i
				kids = append(kids, th.Spawn(func(c *Thread) {
					defer c.Yield()
					c.Yield()
					if i == 1 {
						panic("boom")
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if !errors.Is(err, ErrAppPanic) || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("seed %d: err = %v, want ErrAppPanic", seed, err)
		}
	}
}

// TestNoCodeRunsAfterAbort: after a step-bound or deadlock abort, no
// simulated-thread code runs, not even the aborting thread's defers.
func TestNoCodeRunsAfterAbort(t *testing.T) {
	ran := false
	err := New(1, 100).Run(func(th *Thread) {
		defer func() { ran = true }()
		th.Spawn(func(c *Thread) {
			defer func() { ran = true }()
			for {
				c.Yield()
			}
		})
		for {
			th.Yield()
		}
	})
	if !errors.Is(err, ErrStepBound) || ran {
		t.Fatalf("step bound: err = %v, defers ran = %v", err, ran)
	}
	err = New(1, 0).Run(func(th *Thread) {
		defer func() { ran = true }()
		child := th.Spawn(func(c *Thread) {
			defer func() { ran = true }()
			c.Park("forever")
		})
		th.Join(child)
	})
	if !errors.Is(err, ErrDeadlock) || ran {
		t.Fatalf("deadlock: err = %v, defers ran = %v", err, ran)
	}
}

func TestJoinFinishedThread(t *testing.T) {
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {})
		for i := 0; i < 20; i++ {
			th.Yield()
		}
		if !child.Done() {
			t.Error("child not done after 20 yields")
		}
		th.Join(child) // must not block
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	depth := 0
	err := New(5, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			grand := c.Spawn(func(g *Thread) {
				depth = 2
			})
			c.Join(grand)
		})
		th.Join(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	if depth != 2 {
		t.Fatal("grandchild did not run")
	}
}

func TestStepsAdvance(t *testing.T) {
	s := New(1, 0)
	if err := s.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Yield()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if s.Steps() < 10 {
		t.Fatalf("Steps = %d, want >= 10", s.Steps())
	}
}

// TestPCTPriorityOrder: with no change points (depth 1), the
// highest-priority thread runs to completion before lower ones get CPU.
func TestPCTPriorityOrder(t *testing.T) {
	var order []int32
	s := NewPCT(3, 0, 1, 1000)
	err := s.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < 3; i++ {
			kids = append(kids, th.Spawn(func(c *Thread) {
				for j := 0; j < 5; j++ {
					order = append(order, c.ID())
					c.Yield()
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each thread's 5 entries must be contiguous: once the top-priority
	// thread starts it runs to completion (the main thread is blocked in
	// Join, so only children compete).
	for i := 5; i < len(order); i += 5 {
		block := order[i : i+5]
		for _, id := range block {
			if id != block[0] {
				t.Fatalf("PCT interleaved threads without a change point: %v", order)
			}
		}
	}
}

// TestPCTChangePointSwitches: with depth 2 a change point demotes the
// running thread, so a preemption appears mid-block.
func TestPCTChangePointSwitches(t *testing.T) {
	switched := false
	for seed := int64(0); seed < 30 && !switched; seed++ {
		var order []int32
		s := NewPCT(seed, 0, 2, 40)
		err := s.Run(func(th *Thread) {
			a := th.Spawn(func(c *Thread) {
				for j := 0; j < 10; j++ {
					order = append(order, c.ID())
					c.Yield()
				}
			})
			b := th.Spawn(func(c *Thread) {
				for j := 0; j < 10; j++ {
					order = append(order, c.ID())
					c.Yield()
				}
			})
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order)-1; i++ {
			if order[i] != order[0] {
				// a switch happened before the first thread finished
				if i < 10 {
					switched = true
				}
				break
			}
		}
	}
	if !switched {
		t.Fatal("no seed produced a mid-run preemption with depth 2")
	}
}

// TestPCTDeterministic: same seed, same schedule.
func TestPCTDeterministic(t *testing.T) {
	run := func() string {
		var log string
		s := NewPCT(9, 0, 3, 100)
		err := s.Run(func(th *Thread) {
			var kids []*Thread
			for i := 0; i < 4; i++ {
				kids = append(kids, th.Spawn(func(c *Thread) {
					for j := 0; j < 6; j++ {
						log += string(rune('a' + c.ID()))
						c.Yield()
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	if run() != run() {
		t.Fatal("PCT schedule not deterministic")
	}
}

// TestScheduleGolden pins exact schedules — interleaving and step count —
// so a change to the handoff mechanism cannot shift the RNG draw sequence.
func TestScheduleGolden(t *testing.T) {
	cases := []struct {
		name  string
		s     *Scheduler
		want  string
		steps uint64
	}{
		{"seed42", New(42, 0),
			"1.0 1.1 0.0 2.0 2.1 3.0 2.2 1.2 2.3 2.4 3.1 3.2 3.3 1.3 3.4 0.1 0.2 0.3 0.4 1.4", 26},
		{"seed7", New(7, 0),
			"2.0 3.0 1.0 1.1 0.0 1.2 0.1 2.1 1.3 2.2 1.4 3.1 0.2 3.2 3.3 2.3 3.4 0.3 2.4 0.4", 26},
		// Change points at steps 5 and 8 demote the yielding thread
		// (s.current) twice: 3 is preempted after 3.3, then 2 after 2.2.
		{"pct-depth3", NewPCT(0, 0, 3, 25),
			"3.0 3.1 3.2 3.3 2.0 2.1 2.2 1.0 1.1 1.2 1.3 1.4 0.0 0.1 0.2 0.3 0.4 3.4 2.3 2.4", 26},
	}
	for _, c := range cases {
		got, steps := runFourByFive(t, c.s)
		if got != c.want || steps != c.steps {
			t.Errorf("%s: schedule\n got %q steps %d\nwant %q steps %d", c.name, got, steps, c.want, c.steps)
		}
	}
}

// BenchmarkHandoff measures one scheduling decision among 8 yielding
// threads; ns/handoff includes the picks that keep the same thread running.
func BenchmarkHandoff(b *testing.B) {
	const threads = 8
	per := b.N/threads + 1
	s := New(1, 0)
	b.ResetTimer()
	err := s.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < threads; i++ {
			kids = append(kids, th.Spawn(func(c *Thread) {
				for j := 0; j < per; j++ {
					c.Yield()
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Steps()), "ns/handoff")
}
