package sim

// EventQueue is a deterministic time-ordered queue of events. Events
// scheduled for the same time fire in scheduling order (FIFO), which keeps
// simulations reproducible regardless of heap internals.
//
// An event is stored by value: the Handler it fires on plus one integer
// argument. A caller that schedules through a long-lived handler (a
// pointer to its own state) therefore allocates nothing per event once
// the heap has grown; At adapts a plain callback for cold callers.
//
// The order key of an event is (time, sequence number); Schedule draws
// the next number. A caller holding a long stream of events in time
// order — a trace of request arrivals — can Claim a block of numbers up
// front and schedule each event on its own number (ScheduleClaimed) only
// when its predecessor fires: every event then pops exactly where it
// would have had the whole stream been scheduled at the claim, while
// the heap holds one event of the stream instead of all of them.
type EventQueue struct {
	items []event
	seq   uint64
}

// Handler receives the events scheduled on it: Fire runs when one comes
// due, with the time it was scheduled for and the argument it carries.
type Handler interface {
	Fire(at int64, arg int)
}

type event struct {
	at  int64
	seq uint64
	h   Handler
	arg int
}

// thunk adapts a plain callback to Handler. A func value is a single
// pointer, so storing one in the interface does not allocate.
type thunk func()

func (f thunk) Fire(int64, int) { f() }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.items) }

// Schedule queues an event that calls h.Fire(t, arg) at time t.
// Scheduling in the past is the caller's bug; the queue still delivers
// it at the head.
//
//lint:hotpath
func (q *EventQueue) Schedule(t int64, h Handler, arg int) {
	q.seq++
	q.push(event{at: t, seq: q.seq, h: h, arg: arg})
}

// Claim reserves the next n sequence numbers, as if n events were
// scheduled now, and returns the first; the block is [first, first+n).
// Events scheduled later by Schedule order after all of them.
func (q *EventQueue) Claim(n int) (first uint64) {
	first = q.seq + 1
	q.seq += uint64(n)
	return first
}

// ScheduleClaimed queues an event that calls h.Fire(t, arg) at time t on
// sequence number seq, which must come from a Claim and be used once.
// It pops where it would have had it been scheduled at the Claim,
// provided it is queued before that position comes up: for a stream
// claimed in time order, when the event before it fires.
//
//lint:hotpath
func (q *EventQueue) ScheduleClaimed(seq uint64, t int64, h Handler, arg int) {
	q.push(event{at: t, seq: seq, h: h, arg: arg})
}

// push adds e to the heap.
//
//lint:hotpath
func (q *EventQueue) push(e event) {
	n := len(q.items)
	if n == cap(q.items) {
		q.grow()
	}
	q.items = q.items[:n+1]
	q.items[n] = e
	q.up(n)
}

// grow doubles the heap's capacity: the one allocation a queue makes,
// and only until it has held its largest backlog.
func (q *EventQueue) grow() { q.Reserve(max(2*cap(q.items), 16)) }

// Reserve grows the queue so that it holds n pending events without
// allocating.
func (q *EventQueue) Reserve(n int) {
	if n > cap(q.items) {
		items := make([]event, len(q.items), n)
		copy(items, q.items)
		q.items = items
	}
}

// At schedules fn to run at the given time: Schedule for callers that
// hold no Handler of their own.
func (q *EventQueue) At(t int64, fn func()) { q.Schedule(t, thunk(fn), 0) }

// NextTime returns the time of the earliest pending event. It panics if
// the queue is empty; check Len first.
func (q *EventQueue) NextTime() int64 {
	if len(q.items) == 0 {
		panic("sim: NextTime on empty EventQueue")
	}
	return q.items[0].at
}

// RunDue pops and runs every event with time <= now, in time order. It
// returns the number of events run. Handlers may schedule further events,
// including at <= now; those fire in the same call.
func (q *EventQueue) RunDue(now int64) int {
	n := 0
	for len(q.items) > 0 && q.items[0].at <= now {
		e := q.pop()
		e.h.Fire(e.at, e.arg)
		n++
	}
	return n
}

func (q *EventQueue) pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{} // drop the handler reference
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top
}

func (q *EventQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q.less(l, m) {
			m = l
		}
		if r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q.items[i], q.items[m] = q.items[m], q.items[i]
		i = m
	}
}
