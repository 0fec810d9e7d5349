// White-box tests of the plan → shared-forward → commit tick: mixed ticks
// against the Sequential oracle, KV starvation of one row inside a batch,
// panic isolation inside a shared forward, and the steady-state
// allocation property.
package serve

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// tickAlone runs one tick over sl alone — what Sequential loops.
func tickAlone(sl *slot) {
	tk := newTick(1)
	tk.run([]*slot{sl}, -1)
}

// TestTickMixedMatchesSequential staggers admissions so single ticks carry
// prompt chunks, decode rows and a finishing slot together, and checks
// every request against Sequential at several worker counts.
func TestTickMixedMatchesSequential(t *testing.T) {
	defer parallel.SetWorkers(0)
	m := model.New(model.Tiny(), 1)
	const chunk = 4
	opts := DefaultOptions()
	opts.PrefillChunk = chunk
	// Short prompts first, so they are decoding — and the first of them
	// finishing — while the four-chunk prompts behind them still prefill.
	promptLens := []int{1, 2, 3, 13, 14, 15}
	budgets := []int{3, 9, 12, 4, 6, 2}
	reqs := make([]Request, len(promptLens))
	for i := range reqs {
		prompt := make([]int, promptLens[i])
		for j := range prompt {
			prompt[j] = 1 + (i+3*j)%(m.Cfg.Vocab-1)
		}
		reqs[i] = Request{ID: fmt.Sprintf("mix-%d", i), Prompt: prompt, MaxTokens: budgets[i], Temperature: 0.8, Seed: int64(40 + i)}
	}
	want := make([]Result, len(reqs))
	for i, r := range reqs {
		want[i] = Sequential(m, r, opts)
	}
	for _, workers := range []int{1, 2, 4} {
		parallel.SetWorkers(workers)
		pool := infer.NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
		slots := make([]*slot, len(reqs))
		for i, v := range m.Views(len(reqs)) {
			slots[i] = newSlot(infer.NewSessionPooled(v, pool, 0), m.Cfg.MaxSeq, chunk, nil)
		}
		tk := newTick(len(slots))
		mixed := 0
		var live []*slot
		for n := 0; n < len(slots) || len(live) > 0; n++ {
			if n < len(slots) { // one admission per tick
				slots[n].start(reqs[n], nil, time.Now(), nil)
				live = append(live, slots[n])
			}
			tk.run(live, -1)
			finishing := false
			kept := live[:0]
			for _, sl := range live {
				if sl.done {
					finishing = true
					continue
				}
				kept = append(kept, sl)
			}
			live = kept
			if len(tk.prefills) > 0 && len(tk.rows) > 1 && finishing {
				mixed++
			}
		}
		if mixed == 0 {
			t.Fatalf("workers=%d: no tick mixed prompt chunks, decode rows and a finishing slot", workers)
		}
		for i, sl := range slots {
			got := sl.result()
			if got.FinishReason != want[i].FinishReason || fmt.Sprint(got.Tokens) != fmt.Sprint(want[i].Tokens) {
				t.Fatalf("workers=%d %s: (%s, %v), want (%s, %v)", workers, reqs[i].ID, got.FinishReason, got.Tokens, want[i].FinishReason, want[i].Tokens)
			}
		}
	}
}

// TestStarvedRowRetriesWhileNeighboursAdvance: under a budget with no page
// to spare, the one row that needs a fresh page is left out of its batch —
// token already emitted, session untouched, marked starved/retryPending —
// while the other rows of the same forward advance; once pages free up the
// same row runs and both requests finish bit-identical to Sequential.
func TestStarvedRowRetriesWhileNeighboursAdvance(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	opts := DefaultOptions()
	pool := infer.NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
	pool.SetBudget(3 * int64(len(m.Blocks)) * pool.PageBytes()) // one page per block per slot
	prompt := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = 1 + i%(m.Cfg.Vocab-1)
		}
		return p
	}
	reqs := []Request{
		{ID: "grows", Prompt: prompt(12), MaxTokens: 10, Temperature: 0.9, Seed: 1}, // crosses the 16-row page boundary
		{ID: "neighbour", Prompt: prompt(2), MaxTokens: 12, Temperature: 0.9, Seed: 2},
		{ID: "hog", Prompt: prompt(2), MaxTokens: 30, Seed: 3},
	}
	slots := make([]*slot, len(reqs))
	for i, v := range m.Views(len(reqs)) {
		slots[i] = newSlot(infer.NewSessionPooled(v, pool, 0), m.Cfg.MaxSeq, opts.PrefillChunk, nil)
		slots[i].start(reqs[i], nil, time.Now(), nil)
	}
	grows, neighbour, hog := slots[0], slots[1], slots[2]
	tk := newTick(len(slots))
	live := slots
	for !grows.starved {
		if tk.run(live, -1); grows.done || neighbour.done {
			t.Fatal("a request finished before the budget starved the growing slot")
		}
	}
	if !grows.retryPending || grows.sess.Pos() != pool.Rows() {
		t.Fatalf("starved slot: retryPending=%v at position %d, want true at the page boundary %d", grows.retryPending, grows.sess.Pos(), pool.Rows())
	}
	emitted, pos := len(grows.tokens), neighbour.sess.Pos()
	tk.run(live, -1) // still no page: the row stays out, the batch goes on
	if !grows.starved || len(grows.tokens) != emitted || grows.sess.Pos() != pool.Rows() {
		t.Fatalf("starved slot moved without a page: starved=%v tokens %d->%d pos %d", grows.starved, emitted, len(grows.tokens), grows.sess.Pos())
	}
	if neighbour.sess.Pos() != pos+1 {
		t.Fatalf("neighbour advanced %d rows beside a starved row, want 1", neighbour.sess.Pos()-pos)
	}
	hog.sess.Reset() // what the scheduler's preemption does: free the victim's pages
	live = slots[:2]
	tk.run(live, -1)
	if grows.starved || grows.retryPending || grows.sess.Pos() != pool.Rows()+1 {
		t.Fatalf("row did not retry once pages were free: starved=%v retryPending=%v pos %d", grows.starved, grows.retryPending, grows.sess.Pos())
	}
	for !grows.done || !neighbour.done {
		tk.run(live, -1)
	}
	for i, sl := range live {
		want := Sequential(m, reqs[i], opts)
		if got := sl.result(); got.FinishReason != want.FinishReason || fmt.Sprint(got.Tokens) != fmt.Sprint(want.Tokens) {
			t.Fatalf("%s: (%s, %v), want (%s, %v)", reqs[i].ID, got.FinishReason, got.Tokens, want.FinishReason, want.Tokens)
		}
	}
	if ps := pool.Stats(); ps.HighWaterBytes > ps.BudgetBytes {
		t.Fatalf("high water %d over budget %d", ps.HighWaterBytes, ps.BudgetBytes)
	}
}

// submitTogether queues reqs under one hold of the scheduler lock, so the
// decode loop first sees them all at once: which tick each is admitted on,
// and so how their ticks line up, is fixed.
func submitTogether(s *Scheduler, reqs []Request) []*Ticket {
	tickets := make([]*Ticket, len(reqs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range reqs {
		tickets[i] = &Ticket{ch: make(chan Result, 1), tokens: make(chan int, s.tokenStreamCap(r.MaxTokens))}
		s.queue = append(s.queue, pending{req: r, ticket: tickets[i], submitted: time.Now()})
		s.stats.Submitted++
	}
	s.cond.Signal()
	return tickets
}

// TestLoneStarvedSlotRetriesAfterNeighbourFinishes: under a 6-page budget
// two requests that each grow to 4 pages run side by side; "first" is past
// its page boundary (4 + 2 pages leased, none left) when "second" reaches
// its own and starves. Normally the scheduler then preempts; but on the
// tick "first" emits its last token it still holds its pages while the
// forwards run and has returned them by the time the starved slot is
// looked at, alone. "second" must retry against the freed pages, not fail
// with ErrPoolExhausted. Sweeping "first"'s budget moves its finish across
// the tick "second" starves on (both are admitted one tick apart whatever
// the timing: submitTogether), and every run must equal Sequential.
func TestLoneStarvedSlotRetriesAfterNeighbourFinishes(t *testing.T) {
	m := model.New(model.Tiny(), 1)
	opts := DefaultOptions()
	opts.Slots = 2
	pagesPerSlot := int64(2 * len(m.Blocks))
	opts.KVBudgetBytes = (2*pagesPerSlot - int64(len(m.Blocks))) * infer.NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq).PageBytes()
	for firstBudget := 13; firstBudget <= 16; firstBudget++ {
		reqs := []Request{
			{ID: "first", Prompt: []int{1, 2, 3, 4}, MaxTokens: firstBudget, Temperature: 0.9, Seed: 7},
			{ID: "second", Prompt: []int{5, 6, 7, 8}, MaxTokens: 20, Temperature: 0.9, Seed: 8},
		}
		s := New(m, opts)
		tickets := submitTogether(s, reqs)
		for i, tk := range tickets {
			got, want := tk.Wait(), Sequential(m, reqs[i], opts)
			if got.Err != nil {
				t.Fatalf("first budget %d: %s failed: %v", firstBudget, reqs[i].ID, got.Err)
			}
			assertPanicNeighbors(t, fmt.Sprintf("first budget %d: %s", firstBudget, reqs[i].ID), got, want)
		}
		st := s.Stats()
		s.Close()
		if firstBudget == 14 && st.Preemptions != 0 {
			t.Fatalf("first budget 14: %d preemptions: the finish and the starved row did not share a tick", st.Preemptions)
		}
	}
}

func panicRequests(m *model.Model, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			ID:          fmt.Sprintf("r-%d", i),
			Prompt:      []int{1 + i%(m.Cfg.Vocab-1), 2, 3},
			MaxTokens:   8,
			Temperature: 0.7,
			Seed:        int64(10 + i),
		}
	}
	return reqs
}

// TestSharedForwardPanicIsolatedToRequest injects a panic inside the
// shared decode forward of one request's group: the group's members re-run
// one at a time, exactly that request fails, its neighbours — including
// the ones that shared its forward — are bit-identical to an undisturbed
// run, the panics counter reads 1, and no page survives Drain and Close.
func TestSharedForwardPanicIsolatedToRequest(t *testing.T) {
	defer parallel.SetWorkers(0)
	m := model.New(model.Tiny(), 1)
	opts := DefaultOptions()
	opts.Slots = 3
	reqs := panicRequests(m, 6)
	want := make([]Result, len(reqs))
	for i, r := range reqs {
		want[i] = Sequential(m, r, opts)
	}
	for _, workers := range []int{1, 2} {
		parallel.SetWorkers(workers)
		s := New(m, opts)
		s.forwardPanicHook = func(r Request) bool { return r.ID == "r-3" }
		got, err := s.GenerateAll(reqs)
		if err != nil {
			t.Fatalf("GenerateAll: %v", err)
		}
		for i, r := range reqs {
			if r.ID == "r-3" {
				// Its first token was sampled and emitted before the row's
				// forward panicked.
				if got[i].FinishReason != FinishError || got[i].Err == nil || len(got[i].Tokens) != 1 || got[i].Tokens[0] != want[i].Tokens[0] {
					t.Fatalf("workers=%d: poisoned request finished (%s, err=%v, tokens %v)", workers, got[i].FinishReason, got[i].Err, got[i].Tokens)
				}
				continue
			}
			assertPanicNeighbors(t, fmt.Sprintf("workers=%d %s", workers, r.ID), got[i], want[i])
		}
		st := s.Stats()
		if st.Panics != 1 {
			t.Fatalf("workers=%d: Panics = %d, want 1", workers, st.Panics)
		}
		if st.DecodeRows <= st.Ticks/2 {
			t.Fatalf("workers=%d: %d decode rows over %d ticks: the rows did not share forwards", workers, st.DecodeRows, st.Ticks)
		}
		s.Drain()
		s.Close()
		if ps := s.PoolStats(); ps.PagesInUse != 0 {
			t.Fatalf("workers=%d: %d pages in use after a panicked forward and Close, want 0", workers, ps.PagesInUse)
		}
	}
}

// sharedOnlyFault panics in the middle of any multi-row forward — after
// earlier blocks have appended their K/V rows — and works for one row.
type sharedOnlyFault struct {
	nn.Projection
	panics *atomic.Int64
}

func (p sharedOnlyFault) ForwardInto(out, x *tensor.Mat) {
	if x.Rows > 1 {
		p.panics.Add(1)
		panic("fault in a shared forward")
	}
	p.Projection.ForwardInto(out, x)
}

func (p sharedOnlyFault) View() nn.Projection { return p }

// TestSharedForwardFaultRerunsRowsAlone: when every shared forward dies
// mid-flight, the rollback-and-rerun path alone carries the traffic — no
// request fails and every output is bit-identical to Sequential.
func TestSharedForwardFaultRerunsRowsAlone(t *testing.T) {
	defer parallel.SetWorkers(0)
	m := model.New(model.Tiny(), 1)
	opts := DefaultOptions()
	opts.Slots = 3
	opts.PrefillChunk = 1 // prompt chunks stay one row: only decode groups trip the fault
	reqs := panicRequests(m, 6)
	want := make([]Result, len(reqs))
	for i, r := range reqs {
		want[i] = Sequential(m, r, opts)
	}
	var panics atomic.Int64
	last := m.Blocks[len(m.Blocks)-1]
	last.Attn.WO = sharedOnlyFault{last.Attn.WO, &panics}
	for _, workers := range []int{1, 2} {
		parallel.SetWorkers(workers)
		s := New(m, opts)
		got, err := s.GenerateAll(reqs)
		if err != nil {
			t.Fatalf("GenerateAll: %v", err)
		}
		for i, r := range reqs {
			assertPanicNeighbors(t, fmt.Sprintf("workers=%d %s", workers, r.ID), got[i], want[i])
		}
		if st := s.Stats(); st.Panics != 0 {
			t.Fatalf("workers=%d: Panics = %d, want 0: no request was at fault", workers, st.Panics)
		}
		s.Close()
		if ps := s.PoolStats(); ps.PagesInUse != 0 {
			t.Fatalf("workers=%d: %d pages in use after Close, want 0", workers, ps.PagesInUse)
		}
	}
	if panics.Load() == 0 {
		t.Fatal("no shared forward ran: the fault path was not exercised")
	}
}

// TestTickSteadyStateAllocs: a tick at fixed B — plan, one shared forward,
// commit — allocates nothing on the float path at one worker.
func TestTickSteadyStateAllocs(t *testing.T) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	m := model.New(model.Tiny(), 1)
	const B = 4
	pool := infer.NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq)
	slots := make([]*slot, B)
	for i, v := range m.Views(B) {
		slots[i] = newSlot(infer.NewSessionPooled(v, pool, 0), m.Cfg.MaxSeq, 4, nil)
		slots[i].start(Request{ID: fmt.Sprint(i), Prompt: []int{1 + i}, MaxTokens: m.Cfg.MaxSeq, Temperature: 0.8, Seed: int64(i)}, nil, time.Now(), nil)
		slots[i].tokens = make([]int, 0, m.Cfg.MaxSeq)
	}
	tk := newTick(B)
	// Prefill, warm the arena and sampler at B rows, and decode past the
	// page boundary so the measured ticks lease no KV page.
	for slots[0].sess.Pos() <= pool.Rows() {
		tk.run(slots, -1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if rows := tk.run(slots, -1); rows != B {
			t.Fatalf("tick fed %d decode rows, want %d", rows, B)
		}
	})
	if allocs > 0 {
		t.Fatalf("a steady-state tick at B=%d allocates %v, want 0", B, allocs)
	}
}
