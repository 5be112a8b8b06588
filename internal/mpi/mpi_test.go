package mpi

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{1, 2, 3})
		case 1:
			data, st := c.Recv(0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Count != 3 {
				t.Errorf("status = %+v", st)
			}
			want := []float64{1, 2, 3}
			for i := range want {
				if data[i] != want[i] {
					t.Errorf("data[%d] = %v, want %v", i, data[i], want[i])
				}
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // mutate after send; receiver must still see 42
		} else {
			data, _ := c.Recv(0, 0)
			if data[0] != 42 {
				t.Errorf("receiver saw mutated buffer: %v", data[0])
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			// Receive out of order by tag.
			d2, _ := c.Recv(0, 2)
			d1, _ := c.Recv(0, 1)
			if d2[0] != 2 || d1[0] != 1 {
				t.Errorf("tag matching failed: got %v, %v", d2[0], d1[0])
			}
		}
	})
}

func TestRecvAnyTag(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 99, []float64{5})
		} else {
			d, st := c.Recv(0, AnyTag)
			if d[0] != 5 || st.Tag != 99 {
				t.Errorf("got %v tag %d", d[0], st.Tag)
			}
		}
	})
}

func TestRecvAnySource(t *testing.T) {
	const n = 5
	Run(n, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < n-1; i++ {
				d, st := c.Recv(AnySource, 3)
				if int(d[0]) != st.Source {
					t.Errorf("payload %v does not match source %d", d[0], st.Source)
				}
				if seen[st.Source] {
					t.Errorf("duplicate source %d", st.Source)
				}
				seen[st.Source] = true
			}
		} else {
			c.Send(0, 3, []float64{float64(c.Rank())})
		}
	})
}

func TestBarrierOrdersRanks(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var before, after int
	Run(n, ZeroModel, func(c *Comm) {
		mu.Lock()
		before++
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		if before != n {
			t.Errorf("rank %d left barrier before all entered (%d/%d)", c.Rank(), before, n)
		}
		after++
		mu.Unlock()
	})
	if after != n {
		t.Fatalf("after = %d, want %d", after, n)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	const n = 7
	for root := 0; root < n; root++ {
		Run(n, ZeroModel, func(c *Comm) {
			var data []float64
			if c.Rank() == root {
				data = []float64{3.5, -1, float64(root)}
			} else {
				data = make([]float64, 3)
			}
			got := c.Bcast(root, data)
			want := []float64{3.5, -1, float64(root)}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("root %d rank %d: got[%d]=%v want %v", root, c.Rank(), i, got[i], want[i])
				}
			}
		})
	}
}

func TestReduceSum(t *testing.T) {
	const n = 9
	Run(n, ZeroModel, func(c *Comm) {
		res := c.Reduce(0, OpSum, []float64{float64(c.Rank()), 1})
		if c.Rank() == 0 {
			wantSum := float64(n*(n-1)) / 2
			if res[0] != wantSum || res[1] != n {
				t.Errorf("reduce = %v, want [%v %v]", res, wantSum, float64(n))
			}
		} else if res != nil {
			t.Errorf("non-root rank %d got non-nil reduce result", c.Rank())
		}
	})
}

func TestAllreduceOps(t *testing.T) {
	const n = 6
	cases := []struct {
		op   Op
		want float64
	}{
		{OpSum, 15}, // 0+1+..+5
		{OpMax, 5},
		{OpMin, 0},
		{OpProd, 0}, // includes 0
	}
	for _, tc := range cases {
		Run(n, ZeroModel, func(c *Comm) {
			got := c.AllreduceScalar(tc.op, float64(c.Rank()))
			if got != tc.want {
				t.Errorf("%v: rank %d got %v, want %v", tc.op, c.Rank(), got, tc.want)
			}
		})
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		Run(n, ZeroModel, func(c *Comm) {
			out := c.Allgather([]float64{float64(c.Rank() * 10), float64(c.Rank())})
			if len(out) != n {
				t.Fatalf("len(out)=%d want %d", len(out), n)
			}
			for r := 0; r < n; r++ {
				if out[r][0] != float64(r*10) || out[r][1] != float64(r) {
					t.Errorf("n=%d rank %d: out[%d]=%v", n, c.Rank(), r, out[r])
				}
			}
		})
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	const n = 5
	Run(n, ZeroModel, func(c *Comm) {
		mine := []float64{float64(c.Rank()), float64(c.Rank() * c.Rank())}
		all := c.Gather(2, mine)
		var chunks [][]float64
		if c.Rank() == 2 {
			for r := 0; r < n; r++ {
				if all[r][0] != float64(r) {
					t.Errorf("gather[%d] = %v", r, all[r])
				}
			}
			chunks = all
		}
		back := c.Scatter(2, chunks)
		if back[0] != float64(c.Rank()) || back[1] != float64(c.Rank()*c.Rank()) {
			t.Errorf("scatter rank %d got %v", c.Rank(), back)
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	const n = 4
	Run(n, ZeroModel, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		got, _ := c.Sendrecv(right, 11, []float64{float64(c.Rank())}, left, 11)
		if got[0] != float64(left) {
			t.Errorf("rank %d expected %d, got %v", c.Rank(), left, got[0])
		}
	})
}

func TestVirtualClockChargesMessages(t *testing.T) {
	model := NetworkModel{Latency: 1e-3, InvBandwidth: 0}
	w := Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
		} else {
			c.Recv(0, 0)
		}
	})
	if got := w.MaxVirtualTime(); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("virtual time = %v, want 1e-3", got)
	}
}

func TestVirtualClockBandwidthTerm(t *testing.T) {
	model := NetworkModel{Latency: 0, InvBandwidth: 1.0 / 8.0} // 1 s per word
	w := Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 5))
		} else {
			c.Recv(0, 0)
		}
	})
	if got := w.MaxVirtualTime(); math.Abs(got-5) > 1e-12 {
		t.Errorf("virtual time = %v, want 5", got)
	}
}

func TestChargeAndReceiverCatchUp(t *testing.T) {
	// Rank 0 computes 10s then sends; rank 1's clock must advance to
	// at least the send completion even though rank 1 did no work.
	w := Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			c.Charge(10)
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
			if vt := c.VirtualTime(); vt < 10 {
				t.Errorf("receiver clock = %v, want >= 10", vt)
			}
		}
	})
	if w.MaxVirtualTime() < 10 {
		t.Errorf("max virtual time = %v", w.MaxVirtualTime())
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := Run(3, ZeroModel, func(c *Comm) {
		c.Charge(float64(c.Rank()) * 2) // 0, 2, 4 seconds
		c.Barrier()
		if vt := c.VirtualTime(); vt < 4 {
			t.Errorf("rank %d left barrier at t=%v, want >= 4", c.Rank(), vt)
		}
	})
	_ = w
}

func TestStatsCounters(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 7))
			c.Send(1, 0, make([]float64, 3))
			if c.SendCount() != 2 || c.WordsSent() != 10 {
				t.Errorf("sends=%d words=%d", c.SendCount(), c.WordsSent())
			}
		} else {
			c.Recv(0, 0)
			c.Recv(0, 0)
			if c.RecvCount() != 2 {
				t.Errorf("recvs=%d", c.RecvCount())
			}
		}
	})
}

func TestRunCollect(t *testing.T) {
	got := RunCollect(4, ZeroModel, func(c *Comm) int { return c.Rank() * 3 })
	for r, v := range got {
		if v != r*3 {
			t.Errorf("got[%d] = %d", r, v)
		}
	}
}

// Property: Allreduce(sum) equals the serial sum for arbitrary inputs
// regardless of rank count.
func TestAllreduceSumMatchesSerialProperty(t *testing.T) {
	f := func(vals []float64, sizeRaw uint8) bool {
		size := int(sizeRaw%7) + 1
		if len(vals) == 0 {
			vals = []float64{0}
		}
		// Clamp to finite values.
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 1
			}
			// Keep magnitudes tame so float addition order effects stay
			// below the comparison tolerance.
			vals[i] = math.Mod(vals[i], 1e6)
		}
		contrib := func(rank int) float64 {
			return vals[rank%len(vals)]
		}
		var want float64
		for r := 0; r < size; r++ {
			want += contrib(r)
		}
		ok := true
		var mu sync.Mutex
		Run(size, ZeroModel, func(c *Comm) {
			got := c.AllreduceScalar(OpSum, contrib(c.Rank()))
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Bcast delivers identical data to all ranks for any root.
func TestBcastDeliversEverywhereProperty(t *testing.T) {
	f := func(vals []float64, sizeRaw, rootRaw uint8) bool {
		size := int(sizeRaw%8) + 1
		root := int(rootRaw) % size
		if len(vals) == 0 {
			vals = []float64{1}
		}
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		ok := true
		var mu sync.Mutex
		Run(size, ZeroModel, func(c *Comm) {
			buf := make([]float64, len(vals))
			if c.Rank() == root {
				copy(buf, vals)
			}
			got := c.Bcast(root, buf)
			for i := range vals {
				if got[i] != vals[i] {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNetworkModelCost(t *testing.T) {
	m := NetworkModel{Latency: 2, InvBandwidth: 0.5}
	if got := m.Cost(3); got != 2+8*3*0.5 {
		t.Errorf("Cost(3) = %v", got)
	}
	if CPlantModel.Cost(0) != 60e-6 {
		t.Errorf("CPlant latency = %v", CPlantModel.Cost(0))
	}
}

func TestWorldSortedRanksByTime(t *testing.T) {
	w := Run(3, ZeroModel, func(c *Comm) {
		c.Charge(float64(2 - c.Rank())) // rank 0 slowest
	})
	order := w.SortedRanksByTime()
	if order[0] != 0 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSum: "sum", OpMax: "max", OpMin: "min", OpProd: "prod"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", int(op), op.String())
		}
	}
}

// TestAllreduceMinMaxPropagateNaN: a NaN contributed by any one rank
// reaches every rank through OpMin and OpMax, whatever its position.
func TestAllreduceMinMaxPropagateNaN(t *testing.T) {
	for nanRank := 0; nanRank < 4; nanRank++ {
		var mu sync.Mutex
		var got []float64
		Run(4, ZeroModel, func(c *Comm) {
			v := float64(c.Rank() + 1)
			if c.Rank() == nanRank {
				v = math.NaN()
			}
			lo, hi := c.AllreduceScalar(OpMin, v), c.AllreduceScalar(OpMax, v)
			mu.Lock()
			got = append(got, lo, hi)
			mu.Unlock()
		})
		for _, g := range got {
			if !math.IsNaN(g) {
				t.Errorf("NaN on rank %d: reductions gave %v, want all NaN", nanRank, got)
				break
			}
		}
	}
}
