package flowtable

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
)

// refTable is the reference model for Table's rule mutations: the
// straightforward algorithm the indexed table replaces. An add scans
// every rule with Match.Equal for an overwrite and re-sorts the whole
// list with sort.SliceStable; strict ops scan for Equal; lookups scan
// in (priority desc, seq asc) order.
type refTable struct {
	capacity int
	entries  []*refEntry
	nextSeq  uint64
}

type refEntry struct {
	match     openflow.Match
	prio      uint16
	actions   []openflow.Action
	idle      time.Duration
	hard      time.Duration
	installed time.Time
	last      time.Time
	seq       uint64
}

type refRemoved struct {
	e      *refEntry
	reason openflow.FlowRemovedReason
}

func (r *refTable) apply(m openflow.FlowMod, now time.Time) ([]refRemoved, error) {
	switch m.Command {
	case openflow.FlowAdd:
		return nil, r.add(m, now)
	case openflow.FlowModify, openflow.FlowModifyStrict:
		strict := m.Command == openflow.FlowModifyStrict
		for _, e := range r.entries {
			if r.selects(e, &m, strict) {
				e.actions = m.Actions
			}
		}
		return nil, nil
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		strict := m.Command == openflow.FlowDeleteStrict
		var removed []refRemoved
		keep := r.entries[:0]
		for _, e := range r.entries {
			if r.selects(e, &m, strict) && (m.OutPort == openflow.PortNone || outputsTo(e.actions, m.OutPort)) {
				removed = append(removed, refRemoved{e, openflow.RemovedDelete})
			} else {
				keep = append(keep, e)
			}
		}
		r.entries = keep
		return removed, nil
	}
	return nil, fmt.Errorf("flowtable: unsupported command %v", m.Command)
}

func (r *refTable) selects(e *refEntry, m *openflow.FlowMod, strict bool) bool {
	if strict {
		return e.prio == m.Priority && e.match.Equal(&m.Match)
	}
	return Covers(&m.Match, &e.match)
}

func (r *refTable) add(m openflow.FlowMod, now time.Time) error {
	e := &refEntry{
		match:     m.Match,
		prio:      m.Priority,
		actions:   m.Actions,
		idle:      time.Duration(m.IdleTimeout) * time.Second,
		hard:      time.Duration(m.HardTimeout) * time.Second,
		installed: now,
		last:      now,
		seq:       r.nextSeq,
	}
	for i, old := range r.entries {
		if old.prio == e.prio && old.match.Equal(&e.match) {
			e.seq = old.seq
			r.entries[i] = e
			return nil
		}
	}
	if r.capacity > 0 && len(r.entries) >= r.capacity {
		return ErrTableFull
	}
	r.nextSeq++
	r.entries = append(r.entries, e)
	sort.SliceStable(r.entries, func(i, j int) bool {
		if r.entries[i].prio != r.entries[j].prio {
			return r.entries[i].prio > r.entries[j].prio
		}
		return r.entries[i].seq < r.entries[j].seq
	})
	return nil
}

func (r *refTable) lookup(p *netpkt.Packet, inPort uint16, now time.Time) *refEntry {
	for _, e := range r.entries {
		if e.match.Matches(p, inPort) {
			e.last = now
			return e
		}
	}
	return nil
}

func (r *refTable) expire(now time.Time) []refRemoved {
	var removed []refRemoved
	keep := r.entries[:0]
	for _, e := range r.entries {
		switch {
		case e.hard > 0 && now.Sub(e.installed) >= e.hard:
			removed = append(removed, refRemoved{e, openflow.RemovedHardTimeout})
		case e.idle > 0 && now.Sub(e.last) >= e.idle:
			removed = append(removed, refRemoved{e, openflow.RemovedIdleTimeout})
		default:
			keep = append(keep, e)
		}
	}
	r.entries = keep
	return removed
}

// sameRule reports whether a table entry and a model entry hold the
// same rule: priority, the raw match as installed, and the actions.
func sameRule(e *Entry, r *refEntry) bool {
	if e == nil || r == nil {
		return e == nil && r == nil
	}
	return e.Priority == r.prio && e.Match == r.match && slices.Equal(e.Actions, r.actions)
}

func ruleString(prio uint16, m openflow.Match, acts []openflow.Action) string {
	return fmt.Sprintf("%d %+v %s", prio, m, openflow.ActionsString(acts))
}

func refRule(e *refEntry) string {
	if e == nil {
		return "<miss>"
	}
	return ruleString(e.prio, e.match, e.actions)
}

func tableRule(e *Entry) string {
	if e == nil {
		return "<miss>"
	}
	return ruleString(e.Priority, e.Match, e.Actions)
}

// checkTableInvariants asserts the table's structural invariants: the
// list is strictly ordered by (priority desc, seq asc) and the index
// holds exactly the listed entries under their rule identities.
func checkTableInvariants(t *testing.T, tbl *Table) {
	t.Helper()
	for i := 1; i < len(tbl.entries); i++ {
		a, b := tbl.entries[i-1], tbl.entries[i]
		if a.Priority < b.Priority || (a.Priority == b.Priority && a.seq >= b.seq) {
			t.Fatalf("entries out of order at %d: (prio %d seq %d) before (prio %d seq %d)",
				i, a.Priority, a.seq, b.Priority, b.seq)
		}
	}
	if len(tbl.index) != len(tbl.entries) {
		t.Fatalf("index holds %d rules, list %d", len(tbl.index), len(tbl.entries))
	}
	for i, e := range tbl.entries {
		if tbl.index[KeyOf(&e.Match, e.Priority)] != e {
			t.Fatalf("entry %d (%s) missing from the index", i, tableRule(e))
		}
		if got := tbl.position(e); got != i {
			t.Fatalf("position(entry %d) = %d", i, got)
		}
	}
}

// applyModelOps draws seeded random flow_mods over a small rule pool so
// overwrites, priority ties, covering deletes and strict hits all recur.
type applyModelOps struct {
	r       *rand.Rand
	matches []openflow.Match
	probes  []netpkt.Packet
}

func newApplyModelOps(seed int64) *applyModelOps {
	o := &applyModelOps{r: rand.New(rand.NewSource(seed))}
	gen := netpkt.NewSpoofGen(seed, netpkt.FloodMixed, 8)
	for i := 0; i < 16; i++ {
		p := gen.Next()
		o.probes = append(o.probes, p)
		m := openflow.ExactFrom(&p, uint16(1+o.r.Intn(3)))
		for _, bit := range []uint32{openflow.WildInPort, openflow.WildDlSrc,
			openflow.WildTpSrc, openflow.WildTpDst, openflow.WildNwTOS} {
			if o.r.Intn(3) == 0 {
				m.Wildcards |= bit
			}
		}
		if o.r.Intn(4) == 0 {
			m.SetNwSrcMaskLen(8 * o.r.Intn(5))
		}
		o.matches = append(o.matches, m)
	}
	for i := 0; i < 8; i++ {
		o.probes = append(o.probes, gen.Next())
	}
	return o
}

// match returns a pool match; broad adds extra wildcards so non-strict
// ops cover several rules. Values under wildcards are scribbled at
// random, so a rule's identity must come from its normalized match.
func (o *applyModelOps) match(broad bool) openflow.Match {
	m := o.matches[o.r.Intn(len(o.matches))]
	if m.Wildcards&openflow.WildInPort != 0 {
		m.InPort = uint16(o.r.Intn(100))
	}
	if m.Wildcards&openflow.WildTpSrc != 0 {
		m.TpSrc = uint16(o.r.Intn(100))
	}
	if n := m.NwSrcMaskLen(); n < 32 {
		m.NwSrc ^= netpkt.IPv4(o.r.Uint32() >> n)
	}
	if broad {
		switch o.r.Intn(4) {
		case 0:
			return openflow.MatchAll()
		case 1:
			m.Wildcards |= openflow.WildInPort | openflow.WildTpSrc | openflow.WildTpDst
		case 2:
			m.SetNwSrcMaskLen(0)
			m.Wildcards |= openflow.WildDlSrc | openflow.WildDlDst
		}
	}
	return m
}

func (o *applyModelOps) next() openflow.FlowMod {
	fm := openflow.FlowMod{
		Priority: uint16(10 * o.r.Intn(3)),
		Actions:  []openflow.Action{openflow.Output(uint16(1 + o.r.Intn(4)))},
		OutPort:  openflow.PortNone,
	}
	switch k := o.r.Intn(10); {
	case k < 5:
		fm.Command = openflow.FlowAdd
		fm.Match = o.match(false)
		if o.r.Intn(3) == 0 {
			fm.IdleTimeout = uint16(1 + o.r.Intn(6))
		}
		if o.r.Intn(4) == 0 {
			fm.HardTimeout = uint16(1 + o.r.Intn(10))
		}
	case k < 6:
		fm.Command = openflow.FlowModifyStrict
		fm.Match = o.match(false)
	case k < 7:
		fm.Command = openflow.FlowModify
		fm.Match = o.match(true)
	case k < 8:
		fm.Command = openflow.FlowDeleteStrict
		fm.Match = o.match(false)
	default:
		fm.Command = openflow.FlowDelete
		fm.Match = o.match(true)
	}
	if (fm.Command == openflow.FlowDelete || fm.Command == openflow.FlowDeleteStrict) && o.r.Intn(2) == 0 {
		fm.OutPort = uint16(1 + o.r.Intn(4))
	}
	return fm
}

func compareRemoved(t *testing.T, step int, what string, got []Removed, want []refRemoved) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d %s: removed %d rules, model %d", step, what, len(got), len(want))
	}
	for i := range got {
		if !sameRule(got[i].Entry, want[i].e) || got[i].Reason != want[i].reason {
			t.Fatalf("step %d %s: removed[%d] = %s (%v), model %s (%v)", step, what, i,
				tableRule(got[i].Entry), got[i].Reason, refRule(want[i].e), want[i].reason)
		}
	}
}

// TestApplyMatchesReferenceModel runs seeded random flow_mod sequences
// through Table and the reference model and requires identical rule
// order, removals, errors and lookup winners after every operation.
func TestApplyMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		capacity := 0
		if seed%3 == 0 {
			capacity = 6 // small enough that adds hit ErrTableFull
		}
		t.Run(fmt.Sprintf("seed=%d/cap=%d", seed, capacity), func(t *testing.T) {
			o := newApplyModelOps(seed)
			tbl, ref := New(capacity), &refTable{capacity: capacity}
			now := time.Date(2015, 6, 22, 0, 0, 0, 0, time.UTC)
			var full int
			for step := 0; step < 400; step++ {
				now = now.Add(time.Duration(o.r.Intn(1500)) * time.Millisecond)
				switch k := o.r.Intn(40); {
				case k == 0:
					tbl.Clear()
					ref.entries = nil
				case k < 4:
					compareRemoved(t, step, "expire", tbl.Expire(now), ref.expire(now))
				default:
					fm := o.next()
					got, gotErr := tbl.Apply(fm, now)
					want, wantErr := ref.apply(fm, now)
					if !errors.Is(gotErr, wantErr) {
						t.Fatalf("step %d %v: err %v, model %v", step, fm.Command, gotErr, wantErr)
					}
					if errors.Is(gotErr, ErrTableFull) {
						full++
					}
					compareRemoved(t, step, fm.Command.String(), got, want)
				}

				checkTableInvariants(t, tbl)
				entries := tbl.Entries()
				if len(entries) != len(ref.entries) {
					t.Fatalf("step %d: %d rules, model %d", step, len(entries), len(ref.entries))
				}
				for i, e := range entries {
					if !sameRule(e, ref.entries[i]) {
						t.Fatalf("step %d: rule %d = %s, model %s", step, i, tableRule(e), refRule(ref.entries[i]))
					}
				}
				for i, p := range o.probes {
					inPort := uint16(1 + (step+i)%4)
					g, w := tbl.Lookup(&p, inPort, now, p.WireLen()), ref.lookup(&p, inPort, now)
					if !sameRule(g, w) {
						t.Fatalf("step %d probe %d: Lookup = %s, model %s", step, i, tableRule(g), refRule(w))
					}
				}
			}
			if capacity > 0 && full == 0 {
				t.Fatal("capacity bound never rejected an add")
			}
		})
	}
}

// BenchmarkInstall measures rule installation into a fresh table: n
// distinct exact rules at one priority, the shape of a controller
// pushing reactive rules. ns/rule is the per-add cost averaged over the
// fill; it stays flat as n grows when an add is sub-linear.
func BenchmarkInstall(b *testing.B) {
	for _, n := range []int{256, 4096, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			gen := netpkt.NewSpoofGen(7, netpkt.FloodUDP, 0)
			mods := make([]openflow.FlowMod, n)
			for i := range mods {
				p := gen.Next()
				mods[i] = openflow.FlowMod{
					Match:    openflow.ExactFrom(&p, uint16(1+i%4)),
					Command:  openflow.FlowAdd,
					Priority: 10,
					Actions:  []openflow.Action{openflow.Output(2)},
				}
			}
			now := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl := New(0)
				for _, fm := range mods {
					if _, err := tbl.Apply(fm, now); err != nil {
						b.Fatal(err)
					}
				}
			}
			rules := float64(b.N) * float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rules, "ns/rule")
		})
	}
}
