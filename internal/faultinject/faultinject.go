// Package faultinject is the deterministic chaos harness behind the
// replay catalogue's scenarios (experiment A12): seeded,
// schedule-replayable fault plans injected into the runtime. An
// *Injector is a probe.Probe: attached through the one probe seam it
// sees every chaos site (pool submit/steal/run, barrier arrival,
// event-loop dispatch, ptask task body); the webfetch transport reaches
// it through RoundTripper. Detached, the runtime's hooks cost one atomic
// pointer load (the guard test in internal/core asserts this).
//
// Determinism model: every injection site keeps an atomic event counter,
// and a Rule fires on specific event ordinals (Nth, or Nth + k*Every,
// capped by Count). The same plan therefore injects the same multiset of
// (site, ordinal) faults on every run, independent of goroutine
// interleaving — which *task* draws ordinal N may vary, but the injected
// schedule and the multiset of surfaced errors do not. Plans are built
// from a seed (see Scatter), so "same seed ⇒ same injected schedule ⇒
// same surfaced errors" holds end to end; Injector.Trace records what
// actually fired so experiments can assert the replay matched.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/probe"
	"parc751/internal/xrand"
)

// Kind classifies what a fired rule does.
type Kind uint8

const (
	// Delay sleeps for the rule's duration at the site.
	Delay Kind = iota
	// Stall is a long Delay, named separately so traces and invariants
	// can distinguish "jitter" from "a worker wedged for a while".
	Stall
	// Panic panics with an *InjectedPanic (taskbody only; other
	// sites treat it as Delay so a misplaced rule cannot kill a worker).
	Panic
	// Error returns the rule's error (transport only).
	Error
	// Hang blocks until the request context is cancelled and then
	// returns its error (transport only).
	Hang
)

var kindNames = []string{"delay", "stall", "panic", "error", "hang"}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its short name, so a plan serializes
// its rules by name.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("faultinject: kind %d out of range", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText is the inverse of MarshalText. An unknown name is an
// error: silently dropping a rule would replay a different schedule
// than the one recorded.
func (k *Kind) UnmarshalText(text []byte) error {
	for i, n := range kindNames {
		if n == string(text) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("faultinject: unknown fault kind %q", text)
}

// InjectedPanic is the panic value of a Panic-class fault. Carrying the
// site ordinal makes every injected failure uniquely attributable, so a
// chaos scenario can assert "every injected fault surfaced as exactly one error".
type InjectedPanic struct {
	Ordinal uint64
}

// Error makes an InjectedPanic usable directly as an error value.
func (p InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected panic (taskbody ordinal %d)", p.Ordinal)
}

// ErrInjected is the error returned by Error-class transport faults,
// wrapped with the ordinal: errors.Is(err, ErrInjected) identifies it.
var ErrInjected = errors.New("faultinject: injected transport error")

// Rule is one line of a fault plan: at the rule's Site, fire on event
// ordinal Nth and every Every events after that (Every == 0 means fire on
// Nth only), at most Count times (Count == 0 means unlimited). Its JSON
// form, a trace dump's plan, names the site and kind and gives Dur in ns.
type Rule struct {
	Site  probe.Site    `json:"site"`
	Kind  Kind          `json:"kind"`
	Nth   uint64        `json:"nth,omitempty"`   // first firing ordinal (0-based)
	Every uint64        `json:"every,omitempty"` // period after Nth; 0 = one-shot
	Count uint64        `json:"count,omitempty"` // max firings; 0 = unlimited
	Dur   time.Duration `json:"dur_ns,omitempty"`
}

// matches reports whether the rule fires on event ordinal n (ignoring the
// Count cap, which the injector enforces with its own counter).
func (r Rule) matches(n uint64) bool {
	if n < r.Nth {
		return false
	}
	if r.Every == 0 {
		return n == r.Nth
	}
	return (n-r.Nth)%r.Every == 0
}

// Plan is a named, seeded set of rules. The Seed documents how the rules
// were derived (plan builders draw ordinals from it) and keys the
// deterministic backoff jitter used elsewhere in the failure stack.
type Plan struct {
	Name  string `json:"name"`
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules,omitempty"`
}

// Scatter builds count one-shot rules at site, with ordinals drawn
// deterministically from seed in [0, span) — the standard way a chaos
// scenario derives "fail the Nth task" schedules from a seed. Duplicate ordinals are
// re-drawn so exactly count distinct events fault.
func Scatter(seed uint64, site probe.Site, kind Kind, count, span int, dur time.Duration) []Rule {
	if count > span {
		count = span
	}
	rng := xrand.New(seed ^ uint64(site)<<8 ^ uint64(kind))
	seen := make(map[uint64]bool, count)
	rules := make([]Rule, 0, count)
	for len(rules) < count {
		n := uint64(rng.Intn(span))
		if seen[n] {
			continue
		}
		seen[n] = true
		rules = append(rules, Rule{Site: site, Kind: kind, Nth: n, Count: 1, Dur: dur})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Nth < rules[j].Nth })
	return rules
}

// Event is one fired fault, as recorded in the trace.
type Event struct {
	Site    probe.Site
	Ordinal uint64 // site event ordinal the rule fired on
	Kind    Kind
	Rule    int // index into Plan.Rules
}

// String renders the event as site@ordinal:kind, the form a trace
// dump's fault list stores.
func (e Event) String() string {
	return fmt.Sprintf("%s@%d:%s", e.Site, e.Ordinal, e.Kind)
}

// Injector applies a Plan. All methods are safe for concurrent use; the
// match path is lock-free (per-site atomic counters plus per-rule firing
// caps), and only actual firings take the trace mutex.
type Injector struct {
	plan   Plan
	seen   [probe.NumChaosSites]atomic.Uint64 // events observed per site
	fired  []atomic.Uint64                    // firings per rule (Count enforcement)
	bySite [probe.NumChaosSites][]int         // rule indices per site

	mu    sync.Mutex
	trace []Event
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	in := &Injector{plan: plan, fired: make([]atomic.Uint64, len(plan.Rules))}
	for i, r := range plan.Rules {
		if r.Site < probe.NumChaosSites {
			in.bySite[r.Site] = append(in.bySite[r.Site], i)
		}
	}
	return in
}

// fire advances site's event counter and returns the first matching rule
// index, or -1. The counter advances on every call — that is what makes
// ordinals a stable coordinate system — but rules, traces, and sleeps are
// only touched on a hit.
func (in *Injector) fire(site probe.Site) (ruleIdx int, ordinal uint64) {
	n := in.seen[site].Add(1) - 1
	for _, ri := range in.bySite[site] {
		r := &in.plan.Rules[ri]
		if !r.matches(n) {
			continue
		}
		if r.Count > 0 {
			// Reserve a firing slot; losing the race to the cap means the
			// rule is spent.
			if c := in.fired[ri].Add(1); c > r.Count {
				in.fired[ri].Add(^uint64(0))
				continue
			}
		} else {
			in.fired[ri].Add(1)
		}
		in.mu.Lock()
		in.trace = append(in.trace, Event{Site: site, Ordinal: n, Kind: r.Kind, Rule: ri})
		in.mu.Unlock()
		return ri, n
	}
	return -1, n
}

// Fire implements probe.Probe: it advances the site's event counter and
// applies a matching rule. Delay and Stall sleep. At the taskbody site —
// reached only under ptask's core.Catch — a Panic rule sleeps its
// duration and then panics with an *InjectedPanic carrying the event
// ordinal; elsewhere it degrades to the delay, so a misplaced panic
// cannot kill a pool worker. Error and Hang apply only to Transport.
// Trace-only sites are ignored and keep no counter.
func (in *Injector) Fire(site probe.Site, _ int, _, _ uint64) {
	if site >= probe.NumChaosSites {
		return
	}
	ri, n := in.fire(site)
	if ri < 0 {
		return
	}
	r := &in.plan.Rules[ri]
	switch r.Kind {
	case Delay, Stall, Panic:
		if r.Dur > 0 {
			time.Sleep(r.Dur)
		}
	}
	if r.Kind == Panic && site == probe.SiteTaskBody {
		panic(&InjectedPanic{Ordinal: n})
	}
}

// Transport is the transport-site hook, called by RoundTripper. It
// returns a non-nil error when an Error rule fires (wrapped ErrInjected),
// blocks until ctx is done for a Hang rule (returning ctx.Err()), and
// sleeps for Delay/Stall rules.
func (in *Injector) Transport(ctx context.Context) error {
	ri, n := in.fire(probe.SiteTransport)
	if ri < 0 {
		return nil
	}
	r := &in.plan.Rules[ri]
	switch r.Kind {
	case Error:
		return fmt.Errorf("%w (ordinal %d)", ErrInjected, n)
	case Hang:
		if r.Dur > 0 {
			// A bounded hang: wedge for Dur or until the caller gives up.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(r.Dur):
				return fmt.Errorf("%w (hang expired, ordinal %d)", ErrInjected, n)
			}
		}
		<-ctx.Done()
		return ctx.Err()
	default:
		if r.Dur > 0 {
			time.Sleep(r.Dur)
		}
	}
	return nil
}

// Seen returns how many events have been observed at a chaos site.
func (in *Injector) Seen(site probe.Site) uint64 { return in.seen[site].Load() }

// Fired returns the total number of faults injected so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.trace)
}

// FiredAt returns how many faults of the given kind fired at site.
func (in *Injector) FiredAt(site probe.Site, kind Kind) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, e := range in.trace {
		if e.Site == site && e.Kind == kind {
			n++
		}
	}
	return n
}

// Trace returns a copy of the fired events in (site, ordinal) order — the
// canonical replay coordinate, independent of wall-clock interleaving.
// Two runs of the same plan over the same workload produce equal traces.
// It is the fault record: a trace dump stores one Event.String per entry.
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	out := append([]Event(nil), in.trace...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Ordinal < out[j].Ordinal
	})
	return out
}
