package proxy

// Hinted handoff and anti-entropy repair: the two convergence
// mechanisms behind the write path. Hints are the fast path — a failed
// replica leg of an acked write is redelivered (same token, same
// envelope) when the backend returns. Repair is the backstop that
// needs no memory of what was missed: majority-vote every key's bits
// across its replicas and push dissenters the exact group difference.

import (
	"context"
	"math"
	"net/http"
	"time"

	"parsum/internal/accum"
	"parsum/internal/core"
	"parsum/internal/keyed"
	"parsum/internal/sumdclient"
)

// enqueueHint queues one failed-but-acked leg for redelivery. At the
// cap the oldest hint drops (counted): repair reconverges whatever the
// queue forgets, so bounded memory wins over perfect redelivery.
func (p *Proxy) enqueueHint(conn *backendConn, token string, blob []byte) {
	dropped := false
	conn.mu.Lock()
	if len(conn.hints) >= p.hintCap {
		conn.hints = conn.hints[1:]
		dropped = true
	}
	conn.hints = append(conn.hints, hint{token: token, blob: blob})
	conn.mu.Unlock()
	p.mu.Lock()
	p.c.hintsQueued++
	if dropped {
		p.c.hintsDropped++
	}
	p.mu.Unlock()
}

// refusedForGood reports whether a backend answered a push with a 4xx
// that no redelivery of the same bytes can change — anything but 408
// and 429, say a 413 from a backend with a lower body cap.
func refusedForGood(err error) bool {
	st := sumdclient.ErrorStatus(err)
	return st >= 400 && st < 500 && st != http.StatusRequestTimeout && st != http.StatusTooManyRequests
}

// replayConn delivers conn's queued hints in order, stopping at the
// first failure that may pass (the backend is down or overloaded — keep
// the rest for the next round). A hint the backend refuses for good is
// dropped and counted, and repair reconverges what it carried. Caller
// holds p.cut (shared or exclusive).
func (p *Proxy) replayConn(ctx context.Context, conn *backendConn) int {
	played, dropped := 0, 0
	for {
		conn.mu.Lock()
		if len(conn.hints) == 0 {
			conn.mu.Unlock()
			break
		}
		h := conn.hints[0]
		conn.mu.Unlock()
		// The push rides the hint's original token, so a hint racing a
		// client retry of the same write deduplicates on the backend.
		_, err := conn.c.PushKeyedIdem(ctx, h.token, h.blob)
		if err != nil && !refusedForGood(err) {
			break
		}
		conn.mu.Lock()
		// The queue only grows at the tail; head slot 0 is still h.
		conn.hints = conn.hints[1:]
		conn.mu.Unlock()
		if err != nil {
			dropped++
		} else {
			played++
		}
	}
	if played > 0 || dropped > 0 {
		p.mu.Lock()
		p.c.hintsPlayed += int64(played)
		p.c.hintsDropped += int64(dropped)
		p.mu.Unlock()
	}
	return played
}

// replayLoop retries queued hints in the background. Open breakers are
// skipped — State() flips to half-open when the cooldown lapses, and
// the replay push doubles as the probe.
func (p *Proxy) replayLoop(every time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.cut.RLock()
			for _, name := range p.order {
				conn := p.backends[name]
				if conn.br.State() == sumdclient.BreakerOpen {
					continue
				}
				p.replayConn(context.Background(), conn)
			}
			p.cut.RUnlock()
		case <-p.stop:
			return
		}
	}
}

func (p *Proxy) repairLoop(every time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.RepairNow(context.Background())
		case <-p.stop:
			return
		}
	}
}

// RepairStats summarizes one anti-entropy round.
type RepairStats struct {
	Backends     int      `json:"backends"`
	Unreachable  []string `json:"unreachable,omitempty"` // backends whose state could not be pulled
	HintsFlushed int      `json:"hints_flushed"`
	Keys         int      `json:"keys"`    // distinct keys examined
	Diffs        int      `json:"diffs"`   // correction partials pushed
	Skipped      int      `json:"skipped"` // keys without a reachable majority
	Errors       int      `json:"errors"`  // failed pulls and pushes
}

// replicaView is one backend's clone of one key (nil acc = the backend
// lacks the key).
type replicaView struct {
	name string
	acc  *accum.Dense
}

// vote is the equality class a replica's state falls into: presence
// plus the correctly rounded bits. Voting on Round() matches the
// system's observable: two replicas agree exactly when their exact
// group elements are equal, and the rounded bits of the exact sum are
// the bit-identity the acceptance oracle checks.
type vote struct {
	present bool
	bits    uint64
}

func viewVote(v replicaView) vote {
	if v.acc == nil {
		return vote{}
	}
	return vote{present: true, bits: math.Float64bits(v.acc.Round())}
}

// RepairNow runs one anti-entropy round and returns what it did.
//
// Phase 1, under the exclusive write cut: flush every queued hint
// (tokened, so a hint racing its own earlier in-flight delivery
// dedups), then pull each backend's full keyed state. A backend whose
// hints did not all go through is not pulled and counts as
// unreachable. The cut makes the pulls a consistent snapshot — no
// write lands between two pulls and shows up on one replica but not
// another.
//
// Phase 2, outside the cut: per key, majority-vote the replicas'
// rounded bits; the majority member is the donor, and every dissenter
// is pushed donor − dissenter as an exact wire partial. Writes racing
// phase 2 commute past the pushes (both donor and dissenter receive
// them), so the end state is donor ⊕ new-writes on every replica.
// Keys whose reachable replicas have no majority are skipped and
// counted — another round after the fleet heals finishes the job.
func (p *Proxy) RepairNow(ctx context.Context) RepairStats {
	stats := RepairStats{Backends: len(p.order)}

	p.cut.Lock()
	states := make(map[string]*keyed.Store, len(p.order))
	for _, name := range p.order {
		conn := p.backends[name]
		stats.HintsFlushed += p.replayConn(ctx, conn)
		conn.mu.Lock()
		pending := len(conn.hints)
		conn.mu.Unlock()
		if pending > 0 {
			// A diff would carry the writes its queued hints still
			// hold, and the hints' later replay would apply them a
			// second time: the backend sits this round out.
			stats.Unreachable = append(stats.Unreachable, name)
			stats.Errors++
			continue
		}
		blob, err := conn.c.PullKeyed(ctx, "", "")
		if err != nil {
			stats.Unreachable = append(stats.Unreachable, name)
			stats.Errors++
			continue
		}
		st := keyed.New(keyed.Options{Partitions: 1})
		if _, err := st.ImportMerge(blob); err != nil {
			stats.Unreachable = append(stats.Unreachable, name)
			stats.Errors++
			continue
		}
		states[name] = st
	}
	p.cut.Unlock()

	union := map[string]bool{}
	for _, st := range states {
		for _, k := range st.Keys() {
			union[k] = true
		}
	}

	pushes := map[string][]keyed.KeyPartial{}
	for key := range union {
		stats.Keys++
		var views []replicaView
		for _, name := range p.ring.Replicas(key, p.r) {
			st, ok := states[name]
			if !ok {
				continue // unreachable this round
			}
			acc, _ := st.CloneAcc(key)
			views = append(views, replicaView{name: name, acc: acc})
		}
		need := len(views)/2 + 1
		counts := map[vote]int{}
		for _, v := range views {
			counts[viewVote(v)]++
		}
		var winner vote
		found := false
		for v, n := range counts {
			if n >= need && len(views) > 0 {
				winner, found = v, true
				break
			}
		}
		if !found {
			stats.Skipped++
			continue
		}
		// The donor is any majority member; donor − dissenter is the
		// exact correction that lands the dissenter on the donor's group
		// element. An absent-majority winner makes the "donor" the empty
		// element: dissenters are pushed their own negation.
		var donor *accum.Dense
		for _, v := range views {
			if viewVote(v) == winner && v.acc != nil {
				donor = v.acc
				break
			}
		}
		for _, v := range views {
			if viewVote(v) == winner {
				continue
			}
			diff := accum.NewDense(0)
			if donor != nil {
				diff.Merge(donor)
			}
			if v.acc != nil {
				diff.AddNeg(v.acc)
			}
			blob, err := core.MarshalDensePartial(diff)
			if err != nil {
				stats.Errors++
				continue
			}
			pushes[v.name] = append(pushes[v.name], keyed.KeyPartial{Key: key, Blob: blob})
		}
	}

	for name, ps := range pushes {
		if _, err := p.backends[name].c.PushKeyedPartials(ctx, ps); err != nil {
			stats.Errors++
			continue
		}
		stats.Diffs += len(ps)
	}

	p.mu.Lock()
	p.c.repairRounds++
	p.c.repairKeys += int64(stats.Keys)
	p.c.repairDiffs += int64(stats.Diffs)
	p.c.repairSkips += int64(stats.Skipped)
	p.c.repairErrors += int64(stats.Errors)
	p.mu.Unlock()
	return stats
}
