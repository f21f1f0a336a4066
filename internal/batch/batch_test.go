package batch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// --- queue -----------------------------------------------------------

func drain[T any](q *Queue[T], n int) []T {
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// Weighted fairness: with 4:1 weights, interactive arrivals submitted
// after a batch backlog still drain first — their virtual finish tags
// advance 4× slower.
func TestQueueWFQInteractiveOvertakesBatchBacklog(t *testing.T) {
	q := NewQueue[string](32, map[string]float64{ClassInteractive: 4, ClassBatch: 1}, 0)
	for i := 0; i < 4; i++ {
		if err := q.Push(ClassBatch, 1, "b"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := q.Push(ClassInteractive, 1, "i"); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(q, 8)
	// Tags: batch 1,2,3,4; interactive 0.25,0.5,0.75,1.0. The interactive
	// run drains first, with the tag-1.0 tie broken deterministically
	// (class-name order: "batch" < "interactive").
	want := []string{"i", "i", "i", "b", "i", "b", "b", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// Work-based fairness: a batched job counts its items, so one 8-item
// batch job weighs like 8 singles and interactive singles interleave
// ahead of a second batch job.
func TestQueueCostIsWork(t *testing.T) {
	q := NewQueue[string](32, map[string]float64{ClassInteractive: 4, ClassBatch: 1}, 0)
	_ = q.Push(ClassBatch, 8, "b8")
	_ = q.Push(ClassBatch, 8, "b8'")
	_ = q.Push(ClassInteractive, 1, "i")
	got := drain(q, 3)
	want := []string{"i", "b8", "b8'"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// Aging: a starving batch head is served out of tag order once per
// interval, and only once — the next pops revert to WFQ order.
func TestQueueAgingServesStarvedHeadOncePerInterval(t *testing.T) {
	q := NewQueue[string](64, map[string]float64{ClassInteractive: 4, ClassBatch: 1}, time.Second)
	clock := time.Unix(0, 0)
	q.now = func() time.Time { return clock }

	_ = q.Push(ClassBatch, 1, "b-old")
	_ = q.Push(ClassBatch, 1, "b-old2")
	// A steady interactive flood with fresh arrivals whose tags always
	// undercut the batch heads.
	for i := 0; i < 8; i++ {
		_ = q.Push(ClassInteractive, 1, "i")
	}

	// Within the interval: pure WFQ, interactive first.
	if v, _ := q.Pop(); v != "i" {
		t.Fatalf("pre-aging pop = %q, want interactive", v)
	}

	// Cross the aging threshold: exactly one aged override fires, then
	// WFQ resumes until the next interval elapses.
	clock = clock.Add(1100 * time.Millisecond)
	if v, _ := q.Pop(); v != "b-old" {
		t.Fatalf("aged pop = %q, want the starved batch head", v)
	}
	if v, _ := q.Pop(); v != "i" {
		t.Fatalf("post-aging pop reverted to %q, want interactive (override is rate-limited)", v)
	}
	if got := q.Aged(); got != 1 {
		t.Fatalf("aged counter = %d, want 1", got)
	}

	clock = clock.Add(1100 * time.Millisecond)
	if v, _ := q.Pop(); v != "b-old2" {
		t.Fatalf("second interval pop = %q, want the next starved batch head", v)
	}
	if got := q.Aged(); got != 2 {
		t.Fatalf("aged counter = %d, want 2", got)
	}
}

func TestQueueBoundsAndClose(t *testing.T) {
	q := NewQueue[int](2, nil, 0)
	if err := q.Push("x", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("y", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("x", 1, 3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth push: %v, want ErrQueueFull", err)
	}
	q.Close()
	if err := q.Push("x", 1, 4); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close push: %v, want ErrQueueClosed", err)
	}
	// Close drains what is queued before reporting closed.
	if _, ok := q.Pop(); !ok {
		t.Fatal("queued element lost at close")
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("queued element lost at close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop reported ok on a closed empty queue")
	}
}

// A blocked Pop wakes on Close (worker-exit path).
func TestQueuePopWakesOnClose(t *testing.T) {
	q := NewQueue[int](2, nil, 0)
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop returned ok=true on empty closed queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop did not wake on Close")
	}
}

// --- cache -----------------------------------------------------------

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(2)
	k1 := Key("a")
	k2 := Key("b")
	k3 := Key("c")

	_, fl, st := c.Acquire(k1)
	if st != Lead {
		t.Fatalf("first acquire: %v, want Lead", st)
	}
	c.Commit(fl, "v1")
	if v, _, st := c.Acquire(k1); st != Hit || v != "v1" {
		t.Fatalf("re-acquire: (%v,%v), want hit v1", v, st)
	}

	_, fl2, _ := c.Acquire(k2)
	c.Commit(fl2, "v2")
	// k1 was touched after k2 was... no: order of recency is k2 (commit),
	// but k1's hit above predates it. Touch k1 so k2 is the LRU victim.
	if v, _, st := c.Acquire(k1); st != Hit || v != "v1" {
		t.Fatalf("touch k1: (%v,%v)", v, st)
	}
	_, fl3, _ := c.Acquire(k3)
	c.Commit(fl3, "v3") // evicts k2
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, _, st := c.Acquire(k1); st != Hit {
		t.Fatalf("k1 evicted, want kept (recently used)")
	}
	if _, fl, st := c.Acquire(k2); st != Lead {
		t.Fatalf("k2 acquire after eviction: %v, want Lead", st)
	} else {
		c.Abort(fl)
	}
	hits, misses, _, aborted := c.Stats()
	if hits < 3 || misses < 4 || aborted != 1 {
		t.Fatalf("stats hits=%d misses=%d aborted=%d", hits, misses, aborted)
	}
}

// Single-flight: concurrent identical acquisitions coalesce behind one
// leader; followers get the committed value without recomputing.
func TestCacheSingleFlightCoalesces(t *testing.T) {
	c := NewCache(4)
	k := Key("d")
	_, lead, st := c.Acquire(k)
	if st != Lead {
		t.Fatalf("leader acquire: %v", st)
	}

	const followers = 4
	var wg sync.WaitGroup
	vals := make([]any, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, fl, st := c.Acquire(k)
			if st != Follow {
				t.Errorf("follower acquire: %v, want Follow", st)
				return
			}
			v, ok, err := fl.Wait(context.Background())
			if err != nil || !ok {
				t.Errorf("follower wait: ok=%v err=%v", ok, err)
				return
			}
			vals[i] = v
		}()
	}
	time.Sleep(10 * time.Millisecond)
	c.Commit(lead, "computed-once")
	wg.Wait()
	for i, v := range vals {
		if v != "computed-once" {
			t.Fatalf("follower %d got %v", i, v)
		}
	}
	if _, _, coalesced, _ := c.Stats(); coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", coalesced, followers)
	}
}

// Leader cancelled mid-flight: followers wake with ok=false and
// recompute locally; nothing poisoned, a later commit still lands, and
// a follower's context cancellation unblocks its Wait.
func TestCacheLeaderAbortReleasesFollowers(t *testing.T) {
	c := NewCache(4)
	k := Key("e")
	_, lead, _ := c.Acquire(k)
	_, fl, st := c.Acquire(k)
	if st != Follow {
		t.Fatalf("follower acquire: %v", st)
	}
	go c.Abort(lead)
	_, ok, err := fl.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("follower got ok=true from an aborted flight")
	}
	// The follower recomputes and the key is cacheable again.
	_, fl2, st := c.Acquire(k)
	if st != Lead {
		t.Fatalf("post-abort acquire: %v, want Lead", st)
	}
	c.Commit(fl2, "recomputed")
	if v, _, st := c.Acquire(k); st != Hit || v != "recomputed" {
		t.Fatalf("post-recompute acquire: (%v, %v)", v, st)
	}

	// Follower-side cancellation.
	_, lead3, _ := c.Acquire(Key("f"))
	_, fl3, _ := c.Acquire(Key("f"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := fl3.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower wait: %v", err)
	}
	c.Abort(lead3)
}

// --- farm / engine ---------------------------------------------------

// The free list spreads leases across devices before doubling up.
func TestFarmLeaseRoundRobinByDevice(t *testing.T) {
	f := NewFarm(2, 2)
	ctx := context.Background()
	want := []Lane{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	for i, w := range want {
		l, err := f.Lease(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if l != w {
			t.Fatalf("lease %d = %+v, want %+v", i, l, w)
		}
	}
	// Exhausted: Lease blocks until a release or ctx cancels.
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := f.Lease(tctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-capacity lease: %v", err)
	}
	f.Release(Lane{1, 0})
	if l, err := f.Lease(ctx); err != nil || l != (Lane{1, 0}) {
		t.Fatalf("re-lease: %+v, %v", l, err)
	}
}

// Engine groups by (N, NB), runs a group back-to-back on one lane, and
// keeps results in item order.
func TestEngineGroupsSameShapeOnOneLane(t *testing.T) {
	e := NewEngine(NewFarm(2, 2), nil, obs.NewRegistry())
	items := []Item{
		{Index: 0, N: 64, NB: 32, Seed: 1},
		{Index: 1, N: 96, NB: 32, Seed: 2},
		{Index: 2, N: 64, NB: 32, Seed: 3},
	}
	runs, err := e.Run(context.Background(), items, func(ctx context.Context, it Item, lane Lane) (any, *gpu.Device, error) {
		dev := gpu.NewNamed(sim.K40c(), gpu.CostOnly, lane.Name())
		// Charge something so windows are non-trivial.
		m := dev.Alloc(it.N, it.N)
		dev.Free(m)
		return it.Seed, dev, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("%d runs", len(runs))
	}
	for i, r := range runs {
		if r.Item.Index != i {
			t.Fatalf("run %d holds item %d — order lost", i, r.Item.Index)
		}
		if r.Value != items[i].Seed {
			t.Fatalf("run %d value %v", i, r.Value)
		}
	}
	if runs[0].Lane != runs[2].Lane {
		t.Errorf("same-(N,nb) items split across lanes %s / %s", runs[0].Lane, runs[2].Lane)
	}
	if runs[0].Lane == runs[1].Lane {
		t.Errorf("distinct shapes share lane %s — no concurrency", runs[0].Lane)
	}
	if runs[2].Start < runs[0].End {
		t.Errorf("grouped items overlap on one lane: [%g,%g) then [%g,%g)",
			runs[0].Start, runs[0].End, runs[2].Start, runs[2].End)
	}
}

// One failing item cancels the job's remaining groups.
func TestEngineFirstErrorCancelsSiblings(t *testing.T) {
	e := NewEngine(NewFarm(1, 4), nil, nil)
	boom := errors.New("boom")
	var mu sync.Mutex
	ran := map[int]bool{}
	items := []Item{
		{Index: 0, N: 64, NB: 32},
		{Index: 1, N: 64, NB: 32},
		{Index: 2, N: 64, NB: 32},
	}
	_, err := e.Run(context.Background(), items, func(ctx context.Context, it Item, lane Lane) (any, *gpu.Device, error) {
		mu.Lock()
		ran[it.Index] = true
		mu.Unlock()
		if it.Index == 0 {
			return nil, nil, boom
		}
		return nil, nil, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first item error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !ran[0] {
		t.Fatal("item 0 never ran")
	}
}
