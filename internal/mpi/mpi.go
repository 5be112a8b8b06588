// Package mpi provides an in-process SPMD message-passing runtime that
// stands in for MPI-1 in the paper's Ccaffeine/CPlant environment.
//
// P ranks execute as goroutines sharing nothing but Comm endpoints.
// Point-to-point messages travel over per-pair channels with tag
// matching; collectives are built on top of point-to-point so that the
// communication volume of the simulated run matches what a real MPI
// job would move.
//
// The runtime keeps two clocks per rank:
//
//   - the wall clock, which is whatever the host machine does, and
//   - a virtual clock, which charges every message a latency/bandwidth
//     cost (alpha + n*beta) and lets callers charge modeled compute
//     time explicitly.
//
// The virtual clock is what the scaling experiments (paper Figs 8 and
// 9, Table 5) report: the reproduction host is a single-CPU container,
// so wall time cannot exhibit parallel speedup, but the cost model —
// the same LogP-style model the paper's clusters obey — can.
package mpi

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ccahydro/internal/obs"
)

// Op identifies a reduction operator for Reduce/Allreduce.
type Op int

// Reduction operators. OpMin and OpMax propagate NaN from either
// operand, so a NaN contributed by any rank reaches every rank.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b || math.IsNaN(a) {
			return a
		}
		return b
	case OpMin:
		if a < b || math.IsNaN(a) {
			return a
		}
		return b
	case OpProd:
		return a * b
	}
	panic("mpi: unknown op")
}

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// AnySource matches any sending rank in Recv.
const AnySource = -1

// message is a single point-to-point payload. Data is copied on send so
// that sender and receiver never alias a buffer, matching MPI semantics.
type message struct {
	from, tag int
	// comm scopes the message to one communicator so traffic on a
	// split communicator never matches receives on another.
	comm     uint64
	data     []float64
	sendTime float64 // virtual time at which the sender issued the send
	// flow is the nonzero trace flow id tying this message's send to
	// its receive when the sender's endpoint has a tracer attached.
	flow uint64
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// NetworkModel is the cost model used by the virtual clock. Costs are in
// seconds; message size n is in float64 words (8 bytes each).
type NetworkModel struct {
	// Latency is the per-message cost (the alpha term).
	Latency float64
	// InvBandwidth is the per-byte cost (the beta term).
	InvBandwidth float64
}

// Cost returns the virtual-time cost of moving n float64 words.
func (m NetworkModel) Cost(n int) float64 {
	return m.Latency + float64(8*n)*m.InvBandwidth
}

// CPlantModel approximates the paper's CPlant cluster: Myrinet with
// 32-bit PCI cards — roughly 60 us latency through MPICH and ~132 MB/s
// sustained bandwidth.
var CPlantModel = NetworkModel{Latency: 60e-6, InvBandwidth: 1.0 / (132e6)}

// FastEthernetModel approximates the 100bT Beowulf used for the long
// flame run: ~80 us latency, ~11 MB/s.
var FastEthernetModel = NetworkModel{Latency: 80e-6, InvBandwidth: 1.0 / (11e6)}

// ZeroModel charges nothing; useful for unit tests of pure semantics.
var ZeroModel = NetworkModel{}

// World is the shared state of one SPMD job: the mailboxes connecting
// ranks and the virtual clocks.
type World struct {
	size  int
	model NetworkModel

	// mail[dst][src] is the queue of messages from src to dst.
	mail []map[int]*mailbox

	clocks []*clock

	barrier *barrierState

	// arrivals[r] is bumped (under arrivalMu[r]) whenever a message is
	// delivered to rank r; AnySource receives park on it.
	arrivalMu   []sync.Mutex
	arrivalCond []*sync.Cond
	arrivals    []int

	// bufs is the free-list of recycled message payload buffers, keyed
	// by exact length. Sends draw copies from it; receivers that are
	// done with a payload return it via Comm.Recycle. Steady-state
	// ghost exchange then moves data with zero allocations.
	bufs struct {
		mu   sync.Mutex
		free map[int][][]float64
	}

	// fault holds the armed fault-injection config and, once a rank has
	// failed (or Abort was called), the poisoning error every blocked
	// operation unwinds with. See fault.go.
	fault struct {
		mu      sync.Mutex
		armed   *Fault
		fired   bool
		failure error
	}

	mu sync.Mutex
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

type clock struct {
	mu sync.Mutex
	t  float64
}

func (c *clock) advanceTo(t float64) {
	c.mu.Lock()
	if t > c.t {
		c.t = t
	}
	c.mu.Unlock()
}

func (c *clock) add(dt float64) float64 {
	c.mu.Lock()
	c.t += dt
	t := c.t
	c.mu.Unlock()
	return t
}

func (c *clock) now() float64 {
	c.mu.Lock()
	t := c.t
	c.mu.Unlock()
	return t
}

type barrierState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	gen     int
	maxTime float64
}

// NewWorld creates the shared state for an SPMD job of the given size.
func NewWorld(size int, model NetworkModel) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, model: model}
	w.mail = make([]map[int]*mailbox, size)
	w.clocks = make([]*clock, size)
	for i := range w.mail {
		w.mail[i] = make(map[int]*mailbox)
		w.clocks[i] = &clock{}
	}
	b := &barrierState{}
	b.cond = sync.NewCond(&b.mu)
	w.barrier = b
	w.arrivalMu = make([]sync.Mutex, size)
	w.arrivalCond = make([]*sync.Cond, size)
	w.arrivals = make([]int, size)
	for i := range w.arrivalCond {
		w.arrivalCond[i] = sync.NewCond(&w.arrivalMu[i])
	}
	return w
}

// takeBuf returns a payload buffer of exactly n words, reusing a
// recycled one when available.
func (w *World) takeBuf(n int) []float64 {
	w.bufs.mu.Lock()
	if list := w.bufs.free[n]; len(list) > 0 {
		buf := list[len(list)-1]
		w.bufs.free[n] = list[:len(list)-1]
		w.bufs.mu.Unlock()
		return buf
	}
	w.bufs.mu.Unlock()
	return make([]float64, n)
}

// Recycle returns a payload received from Recv/Wait to the world's
// buffer pool once the caller has finished reading it. Ownership is
// exclusive after a receive completes (sends always copy), so recycling
// is safe; callers that skip it simply forgo the reuse.
func (c *Comm) Recycle(buf []float64) {
	if buf == nil {
		return
	}
	w := c.world
	w.bufs.mu.Lock()
	if w.bufs.free == nil {
		w.bufs.free = make(map[int][][]float64)
	}
	w.bufs.free[len(buf)] = append(w.bufs.free[len(buf)], buf)
	w.bufs.mu.Unlock()
}

func (w *World) noteArrival(dst int) {
	w.arrivalMu[dst].Lock()
	w.arrivals[dst]++
	w.arrivalCond[dst].Broadcast()
	w.arrivalMu[dst].Unlock()
}

func (w *World) box(dst, src int) *mailbox {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, ok := w.mail[dst][src]
	if !ok {
		b = newMailbox()
		w.mail[dst][src] = b
	}
	return b
}

// Comm is one rank's endpoint into a World. It deliberately mirrors the
// MPI communicator surface the paper's components consume through the
// framework's "properly scoped MPI communicator".
type Comm struct {
	world *World
	rank  int // world rank (owns the physical mailboxes)

	// group lists the world ranks composing this communicator in
	// logical-rank order; nil means the world communicator.
	group []int
	// myIdx is this endpoint's logical rank within group.
	myIdx int
	// commID scopes message matching; 0 is the world communicator.
	commID uint64
	// splitSeq counts collective Split/Dup calls on this communicator
	// so every member derives identical child IDs.
	splitSeq uint64

	// Stats accumulated by this endpoint.
	sends     int
	recvs     int
	wordsSent int
	// commSeconds is virtual time visibly spent communicating (inline
	// blocking-send charges + receive stalls); hiddenSeconds is transfer
	// time overlapped with compute (see CommStats).
	commSeconds   float64
	hiddenSeconds float64

	// tracer, when non-nil, receives flight slices and flow events for
	// every point-to-point message (see obs.go).
	tracer *obs.Tracer

	// events, when non-nil, receives fault-injection and rank-failure
	// notifications (see fault.go EventSink).
	events EventSink
}

// Rank returns this endpoint's logical rank in [0, Size).
func (c *Comm) Rank() int {
	if c.group != nil {
		return c.myIdx
	}
	return c.rank
}

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.group != nil {
		return len(c.group)
	}
	return c.world.size
}

// WorldRank returns the underlying world rank (the physical mailbox
// owner), independent of any Split.
func (c *Comm) WorldRank() int { return c.rank }

// worldRankOf translates a logical rank to a world rank.
func (c *Comm) worldRankOf(logical int) int {
	if c.group != nil {
		return c.group[logical]
	}
	return logical
}

// VirtualTime returns this rank's simulated elapsed time in seconds.
func (c *Comm) VirtualTime() float64 { return c.world.clocks[c.rank].now() }

// Charge adds modeled compute time to this rank's virtual clock. The
// scaling harness charges per-cell costs through this hook.
func (c *Comm) Charge(seconds float64) {
	if seconds < 0 {
		panic("mpi: negative compute charge")
	}
	c.world.clocks[c.rank].add(seconds)
}

// SendCount reports how many point-to-point sends this rank issued.
func (c *Comm) SendCount() int { return c.sends }

// RecvCount reports how many receives this rank completed.
func (c *Comm) RecvCount() int { return c.recvs }

// WordsSent reports total float64 words sent point-to-point.
func (c *Comm) WordsSent() int { return c.wordsSent }

// Send delivers a copy of data to rank dst with the given tag. It is
// buffered (never blocks on the receiver), matching MPI_Bsend semantics,
// which is how ghost exchange is usually posted.
func (c *Comm) Send(dst int, tag int, data []float64) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dst, c.Size()))
	}
	c.world.failGate()
	c.noteSend(c.sends + 1)
	wdst := c.worldRankOf(dst)
	cp := c.world.takeBuf(len(data))
	copy(cp, data)
	cost := c.world.model.Cost(len(data))
	sendT := c.world.clocks[c.rank].add(cost)
	c.sends++
	c.wordsSent += len(data)
	c.commSeconds += cost
	m := message{from: c.Rank(), tag: tag, comm: c.commID, data: cp, sendTime: sendT}
	c.traceSend(&m, wdst, sendT-cost, cost)
	box := c.world.box(wdst, c.rank)
	box.mu.Lock()
	box.queue = append(box.queue, m)
	box.cond.Broadcast()
	box.mu.Unlock()
	c.world.noteArrival(wdst)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload. src may be AnySource and tag may be AnyTag. The
// receiver's virtual clock advances to at least the sender's send
// completion time (transport latency is charged on the send side).
func (c *Comm) Recv(src int, tag int) ([]float64, Status) {
	if src == AnySource {
		return c.recvAny(tag)
	}
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (size %d)", src, c.Size()))
	}
	wsrc := c.worldRankOf(src)
	box := c.world.box(c.rank, wsrc)
	box.mu.Lock()
	for {
		for i, m := range box.queue {
			if m.comm == c.commID && (tag == AnyTag || m.tag == tag) {
				box.queue = append(box.queue[:i], box.queue[i+1:]...)
				box.mu.Unlock()
				c.finishRecv(m)
				return m.data, Status{Source: m.from, Tag: m.tag, Count: len(m.data)}
			}
		}
		if err := c.world.Failure(); err != nil {
			box.mu.Unlock()
			panic(&abortSignal{err: err})
		}
		box.cond.Wait()
	}
}

func (c *Comm) finishRecv(m message) {
	// A blocking receive posts and waits at the same instant, so none of
	// the message's flight time is hidden behind compute.
	c.finishRecvAt(m, c.world.clocks[c.rank].now())
}

// recvAny scans every inbound mailbox for a matching message; between
// scans it parks on the per-rank arrival notification, so an AnySource
// receive costs one scan per delivered message rather than a busy loop.
func (c *Comm) recvAny(tag int) ([]float64, Status) {
	w := c.world
	for {
		w.arrivalMu[c.rank].Lock()
		seen := w.arrivals[c.rank]
		w.arrivalMu[c.rank].Unlock()

		for logical := 0; logical < c.Size(); logical++ {
			wsrc := c.worldRankOf(logical)
			if wsrc == c.rank {
				continue
			}
			box := w.box(c.rank, wsrc)
			box.mu.Lock()
			for i, m := range box.queue {
				if m.comm == c.commID && (tag == AnyTag || m.tag == tag) {
					box.queue = append(box.queue[:i], box.queue[i+1:]...)
					box.mu.Unlock()
					c.finishRecv(m)
					return m.data, Status{Source: m.from, Tag: m.tag, Count: len(m.data)}
				}
			}
			box.mu.Unlock()
		}

		w.arrivalMu[c.rank].Lock()
		for w.arrivals[c.rank] == seen {
			if err := w.Failure(); err != nil {
				w.arrivalMu[c.rank].Unlock()
				panic(&abortSignal{err: err})
			}
			w.arrivalCond[c.rank].Wait()
		}
		w.arrivalMu[c.rank].Unlock()
	}
}

// Sendrecv posts a send to dst and then receives from src, the usual
// deadlock-free ghost-exchange pairing (legal here because sends are
// buffered).
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) ([]float64, Status) {
	c.Send(dst, sendTag, data)
	return c.Recv(src, recvTag)
}

// Barrier blocks until all ranks of this communicator have entered it.
// All ranks leave with their virtual clocks advanced to at least the
// latest entry time plus one latency (the broadcast release). On a
// split communicator the barrier is message-based (gather + release),
// scoped to the group.
func (c *Comm) Barrier() {
	c.world.failGate()
	if c.group != nil {
		// Reduce an empty payload to logical root 0, then broadcast the
		// release; clock propagation rides the messages.
		res := c.Reduce(0, OpMax, []float64{0})
		if c.Rank() != 0 {
			res = nil
		}
		if res == nil {
			res = []float64{0}
		}
		c.Bcast(0, res)
		return
	}
	b := c.world.barrier
	myT := c.world.clocks[c.rank].now()
	b.mu.Lock()
	if myT > b.maxTime {
		b.maxTime = myT
	}
	b.count++
	if b.count == c.world.size {
		b.count = 0
		b.gen++
		release := b.maxTime + c.world.model.Latency
		b.maxTime = 0
		for r := 0; r < c.world.size; r++ {
			c.world.clocks[r].advanceTo(release)
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	gen := b.gen
	for gen == b.gen {
		if err := c.world.Failure(); err != nil {
			b.mu.Unlock()
			panic(&abortSignal{err: err})
		}
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// tag space reserved for collectives so user tags never collide.
const (
	tagBcast = -1000 - iota
	tagReduce
	tagGather
	tagScatter
	tagAlltoall
	tagAllgatherBase
)

// Bcast distributes root's buffer to all ranks; every rank returns the
// (copied) data. Implemented as a binomial tree, as real MPIs do.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	size := c.Size()
	if size == 1 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	// Relative rank with root mapped to 0.
	rel := (c.Rank() - root + size) % size
	var buf []float64
	if rel == 0 {
		buf = make([]float64, len(data))
		copy(buf, data)
	} else {
		// Receive from parent.
		parent := ((rel - 1) / 2)
		abs := (parent + root) % size
		buf, _ = c.Recv(abs, tagBcast)
	}
	for _, child := range []int{2*rel + 1, 2*rel + 2} {
		if child < size {
			c.Send((child+root)%size, tagBcast, buf)
		}
	}
	return buf
}

// Reduce combines contributions elementwise with op onto root; only
// root receives a meaningful result (others get nil).
func (c *Comm) Reduce(root int, op Op, data []float64) []float64 {
	size := c.Size()
	rel := (c.Rank() - root + size) % size
	acc := make([]float64, len(data))
	copy(acc, data)
	// Binomial tree: children send up.
	for _, child := range []int{2*rel + 1, 2*rel + 2} {
		if child < size {
			part, _ := c.Recv((child+root)%size, tagReduce)
			if len(part) != len(acc) {
				panic("mpi: reduce length mismatch")
			}
			for i := range acc {
				acc[i] = op.apply(acc[i], part[i])
			}
		}
	}
	if rel != 0 {
		parent := (rel - 1) / 2
		c.Send((parent+root)%size, tagReduce, acc)
		return nil
	}
	return acc
}

// Allreduce combines contributions on every rank.
func (c *Comm) Allreduce(op Op, data []float64) []float64 {
	res := c.Reduce(0, op, data)
	if c.Rank() != 0 {
		res = nil
	}
	if res == nil {
		res = make([]float64, len(data))
	}
	return c.Bcast(0, res)
}

// AllreduceScalar is the common single-value form.
func (c *Comm) AllreduceScalar(op Op, v float64) float64 {
	return c.Allreduce(op, []float64{v})[0]
}

// Gather collects equal-size buffers onto root in rank order; non-root
// ranks return nil.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	if c.Rank() != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]float64, c.Size())
	out[root] = append([]float64(nil), data...)
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		buf, _ := c.Recv(src, tagGather)
		out[src] = buf
	}
	return out
}

// Allgather collects every rank's buffer on every rank, in rank order.
func (c *Comm) Allgather(data []float64) [][]float64 {
	// Ring allgather: size-1 steps, each forwarding one block.
	size := c.Size()
	out := make([][]float64, size)
	out[c.Rank()] = append([]float64(nil), data...)
	if size == 1 {
		return out
	}
	right := (c.Rank() + 1) % size
	left := (c.Rank() - 1 + size) % size
	cur := c.Rank()
	for step := 0; step < size-1; step++ {
		tag := tagAllgatherBase - step
		got, _ := c.Sendrecv(right, tag, out[cur], left, tag)
		cur = (cur - 1 + size) % size
		out[cur] = got
	}
	return out
}

// Scatter distributes root's per-rank chunks; every rank returns its own
// chunk. chunks is only read at root and must have Size entries there.
func (c *Comm) Scatter(root int, chunks [][]float64) []float64 {
	if c.Rank() == root {
		if len(chunks) != c.Size() {
			panic("mpi: scatter needs one chunk per rank")
		}
		for dst := 0; dst < c.Size(); dst++ {
			if dst == root {
				continue
			}
			c.Send(dst, tagScatter, chunks[dst])
		}
		return append([]float64(nil), chunks[root]...)
	}
	buf, _ := c.Recv(root, tagScatter)
	return buf
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// RankTime returns one rank's virtual clock.
func (w *World) RankTime(r int) float64 { return w.clocks[r].now() }

// Alltoall performs the complete exchange: chunks[i] goes to rank i,
// and the result holds the chunk received from each rank (the caller's
// own chunk is copied through). chunks must have Size entries.
func (c *Comm) Alltoall(chunks [][]float64) [][]float64 {
	size := c.Size()
	if len(chunks) != size {
		panic("mpi: alltoall needs one chunk per rank")
	}
	me := c.Rank()
	out := make([][]float64, size)
	out[me] = append([]float64(nil), chunks[me]...)
	for dst := 0; dst < size; dst++ {
		if dst == me {
			continue
		}
		c.Send(dst, tagAlltoall, chunks[dst])
	}
	for src := 0; src < size; src++ {
		if src == me {
			continue
		}
		buf, _ := c.Recv(src, tagAlltoall)
		out[src] = buf
	}
	return out
}

// Split partitions this communicator: endpoints passing the same color
// form a new communicator, ordered by (key, current rank); a negative
// color opts out and receives nil. Split is collective — every member
// of this communicator must call it, with matching call sequences, so
// all members derive the same child communicator identity (MPI_Comm_split
// semantics).
func (c *Comm) Split(color, key int) *Comm {
	c.splitSeq++
	// Exchange (color, key) among all members via allgather.
	pairs := c.Allgather([]float64{float64(color), float64(key)})
	type member struct{ color, key, logical int }
	var mine []member
	for logical, p := range pairs {
		col := int(p[0])
		if col != color || col < 0 {
			continue
		}
		mine = append(mine, member{color: col, key: int(p[1]), logical: logical})
	}
	if color < 0 {
		return nil
	}
	sort.Slice(mine, func(a, b int) bool {
		if mine[a].key != mine[b].key {
			return mine[a].key < mine[b].key
		}
		return mine[a].logical < mine[b].logical
	})
	group := make([]int, len(mine))
	myIdx := -1
	for i, m := range mine {
		group[i] = c.worldRankOf(m.logical)
		if m.logical == c.Rank() {
			myIdx = i
		}
	}
	// Deterministic child ID shared by all members of this color.
	id := c.commID*1000003 + c.splitSeq*1009 + uint64(color)*31 + 1
	return &Comm{
		world: c.world, rank: c.rank,
		group: group, myIdx: myIdx, commID: id,
	}
}

// Dup returns a communicator with the same membership but a private
// message space (MPI_Comm_dup). Collective.
func (c *Comm) Dup() *Comm {
	c.splitSeq++
	group := c.group
	if group == nil {
		group = make([]int, c.world.size)
		for i := range group {
			group[i] = i
		}
	}
	id := c.commID*1000003 + c.splitSeq*1009 + 7
	return &Comm{
		world: c.world, rank: c.rank,
		group: append([]int(nil), group...), myIdx: c.Rank(), commID: id,
	}
}

// MaxVirtualTime returns the maximum virtual clock over all ranks —
// the simulated job run time.
func (w *World) MaxVirtualTime() float64 {
	var max float64
	for _, c := range w.clocks {
		if t := c.now(); t > max {
			max = t
		}
	}
	return max
}

// Run launches body on every rank of a fresh world and waits for all to
// finish. It returns the world so callers can read virtual clocks.
func Run(size int, model NetworkModel, body func(*Comm)) *World {
	return RunOn(NewWorld(size, model), body)
}

// RunOn launches body on every rank of an existing world — the entry
// point for jobs that need the world configured up front (fault
// injection, pre-seeded clocks). A rank unwinding with the abort signal
// (a killed rank, or a peer of one) is contained here: the goroutine
// exits cleanly and the failure is reported through w.Failure(). Any
// other panic propagates and crashes the process, as before.
func RunOn(w *World, body func(*Comm)) *World {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		comm := &Comm{world: w, rank: r}
		go func(cm *Comm) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if sig, ok := rec.(*abortSignal); ok {
						if cm.events != nil {
							cm.events.Emit("rank.failed", -1, sig.err.Error())
						}
						return
					}
					panic(rec)
				}
			}()
			body(cm)
		}(comm)
	}
	wg.Wait()
	return w
}

// RunCollect launches body on every rank and gathers each rank's
// result value in rank order.
func RunCollect[T any](size int, model NetworkModel, body func(*Comm) T) []T {
	out := make([]T, size)
	var mu sync.Mutex
	Run(size, model, func(c *Comm) {
		v := body(c)
		mu.Lock()
		out[c.Rank()] = v
		mu.Unlock()
	})
	return out
}

// SortedRanksByTime returns rank indices ordered by descending virtual
// time; handy for load-imbalance diagnostics.
func (w *World) SortedRanksByTime() []int {
	idx := make([]int, w.size)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return w.clocks[idx[a]].now() > w.clocks[idx[b]].now()
	})
	return idx
}
