// Package flowtable implements an OpenFlow 1.0 flow table: priority
// matching with wildcards, per-rule counters, idle and hard timeouts, a
// capacity bound (TCAM size), and a lookup-cost model for software flow
// tables (the paper's hardware switch runs OpenWRT/Pantou, whose software
// table makes lookups grow more expensive as rules accumulate — the cause
// of Figure 11's slow decline beyond 200 PPS).
package flowtable

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/telemetry"
)

// ErrTableFull reports a flow-mod rejected for lack of table capacity.
var ErrTableFull = errors.New("flowtable: table full")

// Entry is one installed flow rule with its counters.
type Entry struct {
	Match       openflow.Match
	Priority    uint16
	Actions     []openflow.Action
	Cookie      uint64
	IdleTimeout time.Duration
	HardTimeout time.Duration
	NotifyRem   bool

	Installed   time.Time
	LastMatched time.Time
	Packets     uint64
	Bytes       uint64

	// actionsShared mirrors Actions for lock-free readers: modify() swaps
	// the plain field in place on the table's owning goroutine, so a
	// reader holding the entry pointer after releasing the table (see
	// rtswitch.Inject) must read the action list through this atomic.
	actionsShared atomic.Pointer[[]openflow.Action]

	seq uint64 // insertion order, breaks priority ties (first wins)
}

// SharedActions returns the entry's action list without the table lock.
// It is the only safe way to read actions from a winner pointer once
// the table may be mutated again; a flow_mod modify is observed
// atomically.
func (e *Entry) SharedActions() []openflow.Action {
	if p := e.actionsShared.Load(); p != nil {
		return *p
	}
	return e.Actions
}

func (e *Entry) setActions(acts []openflow.Action) {
	e.Actions = acts
	e.actionsShared.Store(&acts)
}

// String renders the rule in ovs-ofctl style.
func (e *Entry) String() string {
	return fmt.Sprintf("priority=%d,%s actions=%s",
		e.Priority, e.Match.String(), openflow.ActionsString(e.Actions))
}

// Removed couples an evicted entry with the reason, for FlowRemoved
// notifications.
type Removed struct {
	Entry  *Entry
	Reason openflow.FlowRemovedReason
}

// Table is a single OpenFlow 1.0 flow table.
//
// Counters are kept as four disjoint atomics — every Lookup increments
// exactly one of microHitsPos/microHitsNeg/scanMatched/scanMissed — so
// the hot positive-cache-hit path pays a single atomic add while
// Lookups/Matched/MicroflowHits/MicroflowMisses are derived sums that a
// metrics scrape can read race-free from another goroutine.
type Table struct {
	capacity int
	entries  []*Entry // sorted by (priority desc, seq asc)
	nextSeq  uint64
	// index holds every entry of entries under its rule identity, so an
	// overwriting add, a strict modify and a strict delete find their
	// rule with one map probe instead of a scan.
	index map[RuleKey]*Entry

	// micro is the OVS-style microflow exact-match cache: the winning
	// entry (nil for a cached miss) per exact header tuple + ingress
	// port, consulted before the priority scan. Each cached result is
	// stamped with the table generation it was computed under; rule-set
	// mutations advance the generation and log their match scope, and a
	// stale cached result is revalidated lazily by replaying the logged
	// mutations against its packet — only lookups whose packets fall
	// inside a mutation's scope pay a rescan, so churn in one corner of
	// the rule set no longer empties the whole cache.
	micro        map[microKey]microEntry
	microMaxSize int

	// gen counts rule-set mutations; mutLog retains the match scope of
	// the last mutLogSize of them (ring indexed by gen). A cached result
	// older than the ring's window cannot be replayed and rescans.
	gen    atomic.Uint64
	mutLog [mutLogSize]openflow.Match

	microHitsPos telemetry.Counter // micro hit on a cached rule
	microHitsNeg telemetry.Counter // micro hit on a cached miss
	scanMatched  telemetry.Counter // micro miss, priority scan found a rule
	scanMissed   telemetry.Counter // micro miss, table miss
	microInvals  telemetry.Counter // whole-cache resets (capacity, Clear)
	microRevals  telemetry.Counter // stale entries proven valid by replay
	microEntries telemetry.Gauge
	ruleCount    telemetry.Gauge // mirrors len(entries) for scrape goroutines
}

// mutLogSize bounds the mutation-replay ring. Beyond this many
// mutations, untouched cache entries rescan instead of replaying —
// a bounded-memory compromise, not a correctness edge.
const mutLogSize = 64

// RuleKey is a rule's OpenFlow identity: an add with the same priority
// and a logically equal match overwrites, and strict modify and delete
// act on exactly the rule with this key. It is comparable, so it serves
// as a map key.
type RuleKey struct {
	Priority uint16
	Match    openflow.Match // normalized
}

// KeyOf returns the identity of the rule a flow_mod with match m and
// priority prio installs or targets.
func KeyOf(m *openflow.Match, prio uint16) RuleKey {
	return RuleKey{Priority: prio, Match: m.Normalized()}
}

// microEntry is one cached lookup outcome with its generation stamp.
type microEntry struct {
	e   *Entry // nil caches a miss
	gen uint64
}

// DefaultMicroflowSize bounds the microflow cache; when full it is reset
// rather than evicted entry-by-entry, so a spoofed flood (every packet a
// fresh tuple) costs one bounded map insert per packet and nothing more.
const DefaultMicroflowSize = 8192

// microKey is the exact-match identity of a lookup. It extends
// netpkt.FlowKey with the ingress port and the remaining fields a match
// may constrain (VLAN tag, TOS, ARP opcode), so two packets share a key
// only if every rule treats them identically.
type microKey struct {
	flow    netpkt.FlowKey
	inPort  uint16
	hasVLAN bool
	vlanID  uint16
	vlanPCP uint8
	nwTOS   uint8
	arpOp   uint16
}

func microKeyFor(p *netpkt.Packet, inPort uint16) microKey {
	return microKey{
		flow:    p.Key(),
		inPort:  inPort,
		hasVLAN: p.HasVLAN,
		vlanID:  p.VLANID,
		vlanPCP: p.VLANPCP,
		nwTOS:   p.NwTOS,
		arpOp:   p.ARPOp,
	}
}

// Stats is a counter snapshot of the table and its microflow cache.
type Stats struct {
	Lookups          uint64
	Matched          uint64
	MicroflowHits    uint64
	MicroflowMisses  uint64
	MicroflowEntries int
	Invalidations    uint64
	// Revalidations counts stale cached results proven still valid by
	// mutation-log replay — cache entries that whole-cache invalidation
	// would have thrown away.
	Revalidations uint64
}

// New returns a table bounded to capacity rules (0 = unbounded).
func New(capacity int) *Table {
	return &Table{capacity: capacity, index: make(map[RuleKey]*Entry), microMaxSize: DefaultMicroflowSize}
}

// SetMicroflowSize rebounds the microflow cache (0 disables it). It
// resets any cached state.
func (t *Table) SetMicroflowSize(n int) {
	t.microMaxSize = n
	t.micro = nil
	t.microEntries.Set(0)
}

// Stats returns the counter snapshot. It reads only atomics, so it is
// safe from any goroutine.
func (t *Table) Stats() Stats {
	pos, neg := t.microHitsPos.Value(), t.microHitsNeg.Value()
	sm, sx := t.scanMatched.Value(), t.scanMissed.Value()
	return Stats{
		Lookups:          pos + neg + sm + sx,
		Matched:          pos + sm,
		MicroflowHits:    pos + neg,
		MicroflowMisses:  sm + sx,
		MicroflowEntries: int(t.microEntries.Value()),
		Invalidations:    t.microInvals.Value(),
		Revalidations:    t.microRevals.Value(),
	}
}

// Register attaches the table's counters to reg under the given metric
// name prefix (e.g. "fg_flowtable"). Derived counters are pull-through
// sums over the disjoint atomics, so registration adds no hot-path cost.
func (t *Table) Register(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.CounterFunc(prefix+"_lookups_total", "Flow table lookups.", func() uint64 {
		return t.microHitsPos.Value() + t.microHitsNeg.Value() + t.scanMatched.Value() + t.scanMissed.Value()
	})
	reg.CounterFunc(prefix+"_matched_total", "Lookups that found a rule.", func() uint64 {
		return t.microHitsPos.Value() + t.scanMatched.Value()
	})
	reg.CounterFunc(prefix+"_microflow_hits_total", "Lookups served by the microflow cache.", func() uint64 {
		return t.microHitsPos.Value() + t.microHitsNeg.Value()
	})
	reg.CounterFunc(prefix+"_microflow_misses_total", "Lookups that fell through to the priority scan.", func() uint64 {
		return t.scanMatched.Value() + t.scanMissed.Value()
	})
	reg.RegisterCounter(prefix+"_microflow_invalidations_total",
		"Whole-cache microflow invalidations.", &t.microInvals)
	reg.RegisterCounter(prefix+"_microflow_revalidations_total",
		"Stale microflow entries retained after mutation-log replay.", &t.microRevals)
	reg.RegisterGauge(prefix+"_microflow_entries",
		"Current microflow cache occupancy.", &t.microEntries)
	reg.GaugeFunc(prefix+"_rules",
		"Installed flow rules (updated on mutation).", func() float64 {
			return float64(t.ruleCount.Value())
		})
}

// invalidateMicro drops every cached lookup result: the fallback for
// wholesale changes (Clear, cache resize) that no per-match record can
// scope.
func (t *Table) invalidateMicro() {
	t.ruleCount.Set(int64(len(t.entries)))
	g := t.gen.Add(1)
	t.mutLog[g%mutLogSize] = openflow.MatchAll() // scope: everything
	if len(t.micro) == 0 {
		return
	}
	t.microInvals.Inc()
	clear(t.micro)
	t.microEntries.Set(0)
}

// noteMutation records a rule-set mutation scoped by its match. Cached
// lookups stay put: a stale one is checked against the logged matches on
// its next hit, and only packets inside a mutation's scope rescan. By
// Covers transitivity the match is a sound scope: a packet whose cached
// result a deletion could change must match the deleted rule, hence the
// delete's match; a packet an add could change must match the new rule.
func (t *Table) noteMutation(m *openflow.Match) {
	t.ruleCount.Set(int64(len(t.entries)))
	g := t.gen.Add(1)
	t.mutLog[g%mutLogSize] = *m
}

// microFresh replays the mutation log over a stale cached result:
// true when no mutation since its stamp could affect this packet.
func (t *Table) microFresh(me microEntry, p *netpkt.Packet, inPort uint16) bool {
	cur := t.gen.Load()
	if cur-me.gen > mutLogSize {
		return false // older than the ring's window: cannot prove freshness
	}
	for g := me.gen + 1; g <= cur; g++ {
		if t.mutLog[g%mutLogSize].Matches(p, inPort) {
			return false
		}
	}
	return true
}

// cacheLookup stores a lookup outcome (e == nil caches the miss).
func (t *Table) cacheLookup(k microKey, e *Entry) {
	if t.microMaxSize <= 0 {
		return
	}
	if t.micro == nil {
		t.micro = make(map[microKey]microEntry, 64)
	} else if len(t.micro) >= t.microMaxSize {
		t.microInvals.Inc()
		clear(t.micro)
	}
	t.micro[k] = microEntry{e: e, gen: t.gen.Load()}
	t.microEntries.Set(int64(len(t.micro)))
}

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.entries) }

// RuleCount returns the installed rule count from the gauge mirrored at
// mutation points — unlike Len, safe to call from any goroutine.
func (t *Table) RuleCount() int { return int(t.ruleCount.Value()) }

// Capacity returns the rule capacity (0 = unbounded).
func (t *Table) Capacity() int { return t.capacity }

// Lookups returns the total number of Lookup calls.
func (t *Table) Lookups() uint64 {
	return t.microHitsPos.Value() + t.microHitsNeg.Value() +
		t.scanMatched.Value() + t.scanMissed.Value()
}

// Matched returns the number of Lookup calls that found a rule.
func (t *Table) Matched() uint64 {
	return t.microHitsPos.Value() + t.scanMatched.Value()
}

// Entries returns a snapshot of the rules in match order.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Apply executes a flow_mod against the table. For adds it returns
// ErrTableFull when at capacity and the rule is not an overwrite.
func (t *Table) Apply(m openflow.FlowMod, now time.Time) ([]Removed, error) {
	switch m.Command {
	case openflow.FlowAdd:
		return nil, t.add(m, now)
	case openflow.FlowModify:
		t.modify(m, false)
		return nil, nil
	case openflow.FlowModifyStrict:
		t.modify(m, true)
		return nil, nil
	case openflow.FlowDelete:
		return t.delete(m, false), nil
	case openflow.FlowDeleteStrict:
		return t.delete(m, true), nil
	default:
		return nil, fmt.Errorf("flowtable: unsupported command %v", m.Command)
	}
}

func (t *Table) add(m openflow.FlowMod, now time.Time) error {
	e := &Entry{
		Match:       m.Match,
		Priority:    m.Priority,
		Cookie:      m.Cookie,
		IdleTimeout: time.Duration(m.IdleTimeout) * time.Second,
		HardTimeout: time.Duration(m.HardTimeout) * time.Second,
		NotifyRem:   m.Flags&openflow.FlagSendFlowRem != 0,
		Installed:   now,
		LastMatched: now,
	}
	e.setActions(m.Actions)
	k := KeyOf(&e.Match, e.Priority)
	// An add with identical match and priority overwrites in place,
	// keeping the old rule's position in the tie order.
	if old, ok := t.index[k]; ok {
		e.seq = old.seq
		t.entries[t.position(old)] = e
		t.index[k] = e
		t.noteMutation(&e.Match)
		return nil
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return ErrTableFull
	}
	e.seq = t.nextSeq
	t.nextSeq++
	// The new rule has the largest seq, so it goes after every rule of
	// its own or higher priority.
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Priority < e.Priority })
	t.entries = slices.Insert(t.entries, i, e)
	t.index[k] = e
	t.noteMutation(&e.Match)
	return nil
}

// position returns e's index in entries by binary search on the
// (priority desc, seq asc) order. e must be installed.
func (t *Table) position(e *Entry) int {
	return sort.Search(len(t.entries), func(i int) bool {
		o := t.entries[i]
		return o.Priority < e.Priority || (o.Priority == e.Priority && o.seq >= e.seq)
	})
}

func (t *Table) modify(m openflow.FlowMod, strict bool) {
	// Actions are swapped in place on the live *Entry (atomically, via
	// the shared-actions mirror), so cached winner pointers keep serving
	// the updated actions; which entry wins a lookup is untouched, so the
	// microflow cache needs no invalidation.
	if strict {
		if e, ok := t.index[KeyOf(&m.Match, m.Priority)]; ok {
			e.setActions(m.Actions)
		}
		return
	}
	for _, e := range t.entries {
		if Covers(&m.Match, &e.Match) {
			e.setActions(m.Actions)
		}
	}
}

func (t *Table) delete(m openflow.FlowMod, strict bool) []Removed {
	var removed []Removed
	if strict {
		k := KeyOf(&m.Match, m.Priority)
		e, ok := t.index[k]
		if !ok || (m.OutPort != openflow.PortNone && !outputsTo(e.Actions, m.OutPort)) {
			return nil
		}
		i := t.position(e)
		t.entries = slices.Delete(t.entries, i, i+1)
		delete(t.index, k)
		removed = []Removed{{Entry: e, Reason: openflow.RemovedDelete}}
	} else {
		keep := t.entries[:0]
		for _, e := range t.entries {
			if Covers(&m.Match, &e.Match) && (m.OutPort == openflow.PortNone || outputsTo(e.Actions, m.OutPort)) {
				removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedDelete})
				delete(t.index, KeyOf(&e.Match, e.Priority))
			} else {
				keep = append(keep, e)
			}
		}
		clear(t.entries[len(keep):])
		t.entries = keep
	}
	if len(removed) > 0 {
		// One record covers every removed rule: each removed match is
		// covered by m.Match (or equals it, strict), so any packet whose
		// cached result a removal could change matches m.Match too.
		t.noteMutation(&m.Match)
	}
	return removed
}

func outputsTo(actions []openflow.Action, port uint16) bool {
	for _, a := range actions {
		if out, ok := a.(openflow.ActionOutput); ok && out.Port == port {
			return true
		}
	}
	return false
}

// Lookup finds the highest-priority rule matching p on inPort, updating
// counters. It returns nil on a table miss. The microflow cache serves
// repeats of an exact tuple without rescanning the priority list; misses
// are cached too, since a miss is equally deterministic until the rule
// set changes.
func (t *Table) Lookup(p *netpkt.Packet, inPort uint16, now time.Time, frameLen int) *Entry {
	k := microKeyFor(p, inPort)
	if me, ok := t.micro[k]; ok {
		fresh := me.gen == t.gen.Load()
		if !fresh && t.microFresh(me, p, inPort) {
			// No mutation since the stamp touches this packet: the
			// result stands. Restamp so the replay isn't repeated.
			me.gen = t.gen.Load()
			t.micro[k] = me
			t.microRevals.Inc()
			fresh = true
		}
		if fresh {
			if me.e == nil {
				t.microHitsNeg.Inc()
				return nil
			}
			t.microHitsPos.Inc()
			return t.hit(me.e, now, frameLen)
		}
		// Stale and possibly affected: fall through to the scan, which
		// re-caches the authoritative result.
	}
	for _, e := range t.entries {
		if e.Match.Matches(p, inPort) {
			t.scanMatched.Inc()
			t.cacheLookup(k, e)
			return t.hit(e, now, frameLen)
		}
	}
	t.scanMissed.Inc()
	t.cacheLookup(k, nil)
	return nil
}

func (t *Table) hit(e *Entry, now time.Time, frameLen int) *Entry {
	e.Packets++
	e.Bytes += uint64(frameLen)
	e.LastMatched = now
	return e
}

// Peek is Lookup without counter updates (used by the cache-resident-rules
// design option to test coverage without consuming the rule).
func (t *Table) Peek(p *netpkt.Packet, inPort uint16) *Entry {
	for _, e := range t.entries {
		if e.Match.Matches(p, inPort) {
			return e
		}
	}
	return nil
}

// Expire removes idle- and hard-timed-out rules as of now.
func (t *Table) Expire(now time.Time) []Removed {
	var removed []Removed
	keep := t.entries[:0]
	for _, e := range t.entries {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Installed) >= e.HardTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedHardTimeout})
		case e.IdleTimeout > 0 && now.Sub(e.LastMatched) >= e.IdleTimeout:
			removed = append(removed, Removed{Entry: e, Reason: openflow.RemovedIdleTimeout})
		default:
			keep = append(keep, e)
			continue
		}
		delete(t.index, KeyOf(&e.Match, e.Priority))
	}
	clear(t.entries[len(keep):])
	t.entries = keep
	// Each expired rule's own match scopes its record: only packets the
	// dead rule could have served pay a rescan.
	for _, r := range removed {
		t.noteMutation(&r.Entry.Match)
	}
	return removed
}

// Clear removes every rule.
func (t *Table) Clear() {
	t.entries = nil
	clear(t.index)
	t.invalidateMicro()
}

// Covers reports whether every packet matching b also matches a (a is at
// least as general as b, field by field). It is the OpenFlow non-strict
// delete/modify predicate.
func Covers(a, b *openflow.Match) bool {
	simple := []struct {
		bit   uint32
		equal bool
	}{
		{openflow.WildInPort, a.InPort == b.InPort},
		{openflow.WildDlSrc, a.DlSrc == b.DlSrc},
		{openflow.WildDlDst, a.DlDst == b.DlDst},
		{openflow.WildVLAN, a.DlVLAN == b.DlVLAN},
		{openflow.WildVLANPCP, a.DlVLANPCP == b.DlVLANPCP},
		{openflow.WildDlType, a.DlType == b.DlType},
		{openflow.WildNwProto, a.NwProto == b.NwProto},
		{openflow.WildNwTOS, a.NwTOS == b.NwTOS},
		{openflow.WildTpSrc, a.TpSrc == b.TpSrc},
		{openflow.WildTpDst, a.TpDst == b.TpDst},
	}
	for _, f := range simple {
		if a.Wildcards&f.bit != 0 {
			continue // a wildcards the field: covers anything
		}
		if b.Wildcards&f.bit != 0 {
			return false // a concrete, b wildcard: b is broader
		}
		if !f.equal {
			return false
		}
	}
	if al, bl := a.NwSrcMaskLen(), b.NwSrcMaskLen(); al > 0 {
		if bl < al || !b.NwSrc.InPrefix(a.NwSrc, al) {
			return false
		}
	}
	if al, bl := a.NwDstMaskLen(), b.NwDstMaskLen(); al > 0 {
		if bl < al || !b.NwDst.InPrefix(a.NwDst, al) {
			return false
		}
	}
	return true
}

// SoftwareLookupCost models the per-packet lookup latency of a software
// flow table holding n rules: a fixed base plus a linear scan component.
// Hardware TCAM lookup is constant-time; pass perRule = 0 for it.
func SoftwareLookupCost(n int, base, perRule time.Duration) time.Duration {
	return base + time.Duration(n)*perRule
}
