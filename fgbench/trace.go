package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// clockBase anchors every timestamp the benchmark takes. Stamps are
// nanoseconds on the monotonic clock since clockBase: the wall clock of
// a virtual machine can be slewed while it runs, which would stretch or
// shrink every interval measured across it.
var clockBase = time.Now()

// mono converts t to nanoseconds since clockBase on the monotonic clock.
func mono(t time.Time) int64 { return int64(t.Sub(clockBase)) }

// spanKind names a span taken around one of the benchmark's own calls
// into a layer.
type spanKind uint8

const (
	spanInject    spanKind = iota // producer: Engine.InjectItem
	spanReplay                    // cache goroutine: ReplayObserver arrival and handoff
	spanCtlWait                   // replay arrival until the controller goroutine takes it
	spanCtlHandle                 // controller: encode, decode, HandleMessage, enact
	spanCodec                     // controller: packet_in encode + decode
	spanEnact                     // controller: decision enactment (flow_mods sent)
	spanApply                     // Engine.Apply of a flow_mod (controller or decoy churn)
	spanSynAck                    // shard goroutine: tcpguard SynAck callback
	spanAckInject                 // producer: injecting the cookie ACK
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"inject", "replay", "ctl.wait", "ctl.handle", "ctl.codec", "ctl.enact", "apply", "synack", "ack.inject",
}

// span is one timed call. Spans of one new flow or handshake share id
// (target index + 1); id 0 marks traffic that is not set-up traffic.
type span struct {
	kind       spanKind
	id         uint64
	start, end int64 // mono
}

// spanLog is one goroutine's span buffer: preallocated, appended without
// locks, written out after the run. A nil log records nothing, which is
// how untraced runs pay no tracing cost beyond a nil check.
type spanLog struct {
	goroutine string
	spans     []span
	dropped   uint64
}

func newSpanLog(name string, capacity int) *spanLog {
	return &spanLog{goroutine: name, spans: make([]span, 0, capacity)}
}

func (l *spanLog) add(k spanKind, id uint64, t0, t1 time.Time) {
	if l != nil {
		l.addNanos(k, id, mono(t0), mono(t1))
	}
}

func (l *spanLog) addNanos(k spanKind, id uint64, start, end int64) {
	if l == nil {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{kind: k, id: id, start: start, end: end})
}

// tracer holds one span log per goroutine that calls into the system.
type tracer struct {
	prod, cache, ctl, shard, decoy *spanLog
}

// newTracer sizes the logs for a run of the given length: every
// set-up-traffic span plus a 1-in-injectSample sample of injects.
func newTracer(sp *spec, seconds float64) tracer {
	n := func(perSec float64) int { return int(perSec*(seconds+3)) + 1024 }
	replays := 10000.0 // the dpcache replay ceiling
	return tracer{
		prod:  newSpanLog("producer", n(sp.totalPPS()/injectSample+2*sp.setupRate())),
		cache: newSpanLog("cache", n(replays)),
		ctl:   newSpanLog("controller", n(5*replays)),
		shard: newSpanLog("shard", n(sp.handshakePS)),
		decoy: newSpanLog("decoy", n(sp.decoyModsPS)),
	}
}

// injectSample is the producer's span sampling divisor for ordinary
// packets; set-up traffic (new flows, handshakes) is always traced.
const injectSample = 64

func (t tracer) logs() []*spanLog {
	return []*spanLog{t.prod, t.cache, t.ctl, t.shard, t.decoy}
}

// write dumps every span as one JSON object per line.
func (t tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range t.logs() {
		for _, s := range l.spans {
			fmt.Fprintf(w, "{\"g\":%q,\"span\":%q,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
				l.goroutine, spanNames[s.kind], s.id, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span kind, the median self time in ns: the
// span's duration minus the part its child spans on the same goroutine
// cover. Children nest strictly inside their parent (they are calls made
// within it), so a sweep over start-ordered spans finds them.
func (t tracer) selfTimes() [numSpanKinds]float64 {
	var per [numSpanKinds][]float64
	for _, l := range t.logs() {
		if l == nil {
			continue
		}
		ss := append([]span(nil), l.spans...)
		// Parents first on equal starts: the longer span encloses.
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].end > ss[j].end
		})
		for i, s := range ss {
			if s.kind == spanCtlWait {
				// A wait is not a call: it overlaps the previous handle.
				per[s.kind] = append(per[s.kind], float64(s.end-s.start))
				continue
			}
			self := s.end - s.start
			// Direct children: spans inside s not inside an earlier child.
			childEnd := int64(-1 << 62)
			for j := i + 1; j < len(ss) && ss[j].start < s.end; j++ {
				c := ss[j]
				if c.kind == spanCtlWait || c.end > s.end || c.start < childEnd {
					continue
				}
				self -= c.end - c.start
				childEnd = c.end
			}
			per[s.kind] = append(per[s.kind], float64(self))
		}
	}
	var out [numSpanKinds]float64
	for k := range per {
		out[k] = quantile(per[k], 0.5)
	}
	return out
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
// It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
