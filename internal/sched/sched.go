// Package sched implements a deterministic cooperative scheduler for
// simulated threads. Exactly one simulated thread runs at a time; at every
// yield point (the instrumented runtime yields before each PM access and
// synchronization operation) a seeded RNG picks the next runnable thread.
//
// This substitutes for the OS scheduler under Intel PIN in the original
// HawkSet: lockset analysis is interleaving-insensitive, but a deterministic
// schedule makes every experiment reproducible from a seed, and it gives the
// PMRace-style baseline (internal/baseline/pmrace) the schedule control it
// needs for delay injection.
//
// Each simulated thread is an iter.Pull coroutine. Run's goroutine loops
// resuming the current thread; a yielding thread picks its successor, makes
// it current and suspends back to that loop. Coroutine switches are
// synchronous handoffs that establish happens-before, and only one side runs
// at a time, so scheduler state needs no locking. When the pick is the
// yielding thread itself, Yield returns without any switch.
//
// Aborts: the first deadlock or step-bound error ends the run and Run
// returns it. Unfinished threads, the aborting one included, stay suspended
// until process exit: stopping a coroutine would resume it, so none is ever
// stopped, and no simulated-thread code runs after an abort, not even a
// deferred call. An application panic in a thread ends the run (ErrAppPanic).
package sched

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"
)

// Sentinel causes a Run error wraps, so harnesses driving untrusted code
// (the crash-injection campaign runs app recovery on torn images) can
// classify failures with errors.Is instead of string matching.
var (
	// ErrAppPanic: a simulated thread's application code panicked.
	ErrAppPanic = errors.New("panicked")
	// ErrStepBound: the run exceeded its scheduling-step bound (livelock).
	ErrStepBound = errors.New("step bound exceeded")
	// ErrDeadlock: every live thread is blocked.
	ErrDeadlock = errors.New("deadlock")
)

// State describes a simulated thread's lifecycle.
type State uint8

// Thread states.
const (
	Runnable State = iota
	Running
	Blocked
	Done
)

// Thread is a simulated thread. All methods must be called from the thread's
// own coroutine while it is the running thread.
type Thread struct {
	id    int32
	s     *Scheduler
	state State
	// resume runs the thread's coroutine until it suspends (yield) or ends.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	why    string // block reason, for deadlock diagnostics
	// joiners are threads blocked in Join on this thread.
	joiners []*Thread
}

// ID returns the thread's identifier. The root thread is 0; children are
// numbered in creation order.
func (t *Thread) ID() int32 { return t.id }

// Scheduler multiplexes simulated threads deterministically.
type Scheduler struct {
	rng      *rand.Rand
	threads  []*Thread
	runnable []*Thread
	// current is the running thread; nil once the run is over.
	current  *Thread
	steps    uint64
	maxSteps uint64
	err      error
	// pct, when non-nil, switches thread selection to the PCT policy.
	pct *pctState
}

// New creates a scheduler whose thread-selection order is fully determined
// by seed. maxSteps bounds total scheduling decisions (0 means no bound) and
// guards against livelock in buggy applications under test.
func New(seed int64, maxSteps uint64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed)), maxSteps: maxSteps}
}

// Steps returns the number of scheduling decisions taken so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Current returns the running thread.
func (s *Scheduler) Current() *Thread { return s.current }

// NumThreads returns the number of threads ever created (including done
// ones).
func (s *Scheduler) NumThreads() int { return len(s.threads) }

// Run executes main as thread 0 and returns once every spawned thread has
// finished. It returns an error if the program deadlocks (all live threads
// blocked) or exceeds the step bound. Run may only be called once per
// Scheduler.
func (s *Scheduler) Run(main func(t *Thread)) error {
	if s.threads != nil {
		return fmt.Errorf("sched: Run called twice")
	}
	s.current = s.newThread(main)
	s.current.state = Running
	for s.current != nil {
		s.current.resume()
	}
	return s.err
}

// newThread registers a thread whose coroutine runs fn on first resume.
func (s *Scheduler) newThread(fn func(t *Thread)) *Thread {
	t := &Thread{id: int32(len(s.threads)), s: s}
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.run(fn)
	})
	s.threads = append(s.threads, t)
	return t
}

// run is the coroutine body shared by the root thread and spawned threads.
func (t *Thread) run(fn func(t *Thread)) {
	defer func() {
		if r := recover(); r != nil {
			t.s.finish(fmt.Errorf("sched: thread %d %w: %v", t.id, ErrAppPanic, r))
		}
	}()
	fn(t)
	t.exit()
}

// finish ends the run with err; the Run loop returns it.
func (s *Scheduler) finish(err error) {
	s.err = err
	s.current = nil
}

// Spawn creates a new runnable thread executing fn. Must be called from the
// running thread.
func (t *Thread) Spawn(fn func(t *Thread)) *Thread {
	nt := t.s.newThread(fn)
	t.s.runnable = append(t.s.runnable, nt)
	return nt
}

// Yield gives up the virtual CPU; the scheduler picks the next thread to run
// (possibly this one again) using the seeded RNG.
func (t *Thread) Yield() {
	t.state = Runnable
	t.s.runnable = append(t.s.runnable, t)
	t.switchAway()
}

// Park blocks the thread with a diagnostic reason until another thread calls
// Unpark on it. Must be called from the running thread.
func (t *Thread) Park(why string) {
	t.state = Blocked
	t.why = why
	t.switchAway()
}

// Unpark makes target runnable again. Must be called from the running
// thread; the caller keeps running.
func (t *Thread) Unpark(target *Thread) {
	if target.state != Blocked {
		panic(fmt.Sprintf("sched: Unpark of thread %d in state %d", target.id, target.state))
	}
	target.state = Runnable
	target.why = ""
	t.s.runnable = append(t.s.runnable, target)
}

// Join blocks until target has finished.
func (t *Thread) Join(target *Thread) {
	if target.state == Done {
		return
	}
	target.joiners = append(target.joiners, t)
	t.Park(fmt.Sprintf("join(%d)", target.id))
}

// Done reports whether the thread has finished.
func (t *Thread) Done() bool { return t.state == Done }

// exit marks the running thread finished, wakes joiners, and dispatches the
// next thread, which the Run loop resumes once this coroutine returns.
func (t *Thread) exit() {
	t.state = Done
	for _, j := range t.joiners {
		j.state = Runnable
		j.why = ""
		t.s.runnable = append(t.s.runnable, j)
	}
	t.joiners = nil
	s := t.s
	if len(s.runnable) == 0 {
		if blocked := s.blockedThreads(); len(blocked) > 0 {
			s.finish(fmt.Errorf("sched: %w — all live threads blocked: %v", ErrDeadlock, blocked))
			return
		}
		s.finish(nil)
		return
	}
	s.dispatch()
}

// switchAway dispatches and suspends the caller until it is current again
// (for good if the run ended); if the pick is the caller, no switch happens.
func (t *Thread) switchAway() {
	t.s.dispatch()
	if t.s.current != t {
		t.yield(struct{}{})
	}
}

// dispatch makes the next runnable thread current, or ends the run if none
// can be picked. The caller is still current, as pickPCT requires.
func (s *Scheduler) dispatch() {
	next, err := s.pick()
	if err != nil {
		s.finish(err)
		return
	}
	s.current = next
	next.state = Running
}

func (s *Scheduler) pick() (*Thread, error) {
	if s.maxSteps > 0 && s.steps >= s.maxSteps {
		return nil, fmt.Errorf("sched: %w: step bound %d (livelock?)", ErrStepBound, s.maxSteps)
	}
	if len(s.runnable) == 0 {
		return nil, fmt.Errorf("sched: %w — all live threads blocked: %v", ErrDeadlock, s.blockedThreads())
	}
	s.steps++
	if s.pct != nil {
		return s.pickPCT(), nil
	}
	i := s.rng.Intn(len(s.runnable))
	next := s.runnable[i]
	s.runnable[i] = s.runnable[len(s.runnable)-1]
	s.runnable = s.runnable[:len(s.runnable)-1]
	return next, nil
}

func (s *Scheduler) blockedThreads() []string {
	var out []string
	for _, t := range s.threads {
		if t.state == Blocked {
			out = append(out, fmt.Sprintf("T%d(%s)", t.id, t.why))
		}
	}
	sort.Strings(out)
	return out
}

// Blocked reports whether the thread is currently parked. Safe to read from
// the running thread (the coroutine handoff orders all state access).
func (t *Thread) Blocked() bool { return t.state == Blocked }
