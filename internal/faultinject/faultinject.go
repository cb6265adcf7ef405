// Package faultinject provides deterministic, seed-driven fault injection
// for chaos-testing ByteCard's fault-tolerance layer. An Injector
// implements core.FaultHook: armed rules fire panics, NaN outputs, and
// artificial inference delays against matching model keys, each drawn from
// a seeded generator so a failing run replays exactly. The package also
// builds corrupt artifact payloads (truncation, byte garbling) for
// exercising the Model Loader's skip-and-continue contract, and provides
// StoreHook — deterministic crash points for the model store's write path:
// named barriers that abort the process-under-test (an emulated crash) or
// fail with an injected error, so a chaos sweep can prove the store
// recovers to a consistent generation from a crash at every barrier.
// Production code never links an Injector or StoreHook; the hooks stay nil.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"bytecard/internal/core"
	"bytecard/internal/modelstore"
)

// Kind is a fault class.
type Kind int

// Fault classes.
const (
	// Panic makes the model call panic before inference runs.
	Panic Kind = iota
	// NaN replaces the model's output with NaN.
	NaN
	// Delay stalls the model call by the rule's Delay.
	Delay
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case NaN:
		return "nan"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule arms one fault class against matching model keys.
type Rule struct {
	Kind Kind
	// KeyPrefix limits the rule to model keys with this prefix ("bn:",
	// "factorjoin", "rbx"); empty matches every key.
	KeyPrefix string
	// Rate is the per-call injection probability in (0, 1]; 0 means 1
	// (inject on every matching call).
	Rate float64
	// Delay is the artificial latency for Delay rules.
	Delay time.Duration
}

// Injector is a deterministic core.FaultHook.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []Rule
	counts map[Kind]int64
}

var _ core.FaultHook = (*Injector)(nil)

// New creates an injector; all probability draws derive from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), counts: map[Kind]int64{}}
}

// Arm adds a rule.
func (in *Injector) Arm(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, r)
}

// Disarm drops every rule (the injected fault "heals").
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Injected returns how many faults of a class have fired.
func (in *Injector) Injected(k Kind) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[k]
}

// fireLocked decides whether a rule triggers on this call.
func (in *Injector) fireLocked(r Rule, key string) bool {
	if r.KeyPrefix != "" && !strings.HasPrefix(key, r.KeyPrefix) {
		return false
	}
	if r.Rate > 0 && r.Rate < 1 && in.rng.Float64() >= r.Rate {
		return false
	}
	return true
}

// Before implements core.FaultHook: it runs inside the guard's recovery
// scope ahead of the model call, sleeping for armed delays and panicking
// for armed panics (delays apply first so a call can be both slow and
// fatal).
func (in *Injector) Before(key string) {
	in.mu.Lock()
	var sleep time.Duration
	panics := false
	for _, r := range in.rules {
		switch r.Kind {
		case Delay:
			if in.fireLocked(r, key) {
				sleep += r.Delay
				in.counts[Delay]++
			}
		case Panic:
			if in.fireLocked(r, key) {
				panics = true
				in.counts[Panic]++
			}
		}
	}
	in.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if panics {
		panic(fmt.Sprintf("faultinject: injected panic in %s", key))
	}
}

// Transform implements core.FaultHook: armed NaN rules replace the model's
// output.
func (in *Injector) Transform(key string, v float64) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Kind == NaN && in.fireLocked(r, key) {
			in.counts[NaN]++
			return math.NaN()
		}
	}
	return v
}

// crashPanic is the sentinel payload of an emulated process crash fired at
// a store write barrier. It is unexported so only IsCrash can classify it.
type crashPanic struct{ point string }

// IsCrash reports whether a recovered panic value is an emulated crash
// fired by a StoreHook, returning the barrier it fired at.
func IsCrash(r any) (string, bool) {
	c, ok := r.(crashPanic)
	if !ok {
		return "", false
	}
	return c.point, true
}

// StoreHook is a deterministic modelstore.WriteHook: it records every write
// barrier traversed (so a chaos sweep can enumerate them from a clean run)
// and can arm exactly one crash (panic that unwinds like a process abort —
// no further writes happen) or one injected failure (the barrier returns an
// error, as a full disk or flaky volume would) at a named point.
type StoreHook struct {
	mu      sync.Mutex
	visited []string
	crashAt string
	failAt  string
	failErr error
}

var _ modelstore.WriteHook = (*StoreHook)(nil)

// NewStoreHook creates an unarmed hook that only records barriers.
func NewStoreHook() *StoreHook { return &StoreHook{} }

// At implements modelstore.WriteHook.
func (h *StoreHook) At(point string) error {
	h.mu.Lock()
	h.visited = append(h.visited, point)
	crash := h.crashAt == point
	var fail error
	if h.failAt == point {
		fail = h.failErr
	}
	h.mu.Unlock()
	if crash {
		panic(crashPanic{point: point})
	}
	return fail
}

// ArmCrash makes the next traversal of point panic like a process crash.
func (h *StoreHook) ArmCrash(point string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashAt = point
}

// ArmFail makes every traversal of point return err (injected I/O failure).
func (h *StoreHook) ArmFail(point string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failAt, h.failErr = point, err
}

// DisarmStore clears armed crash and failure points (recording continues).
func (h *StoreHook) DisarmStore() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashAt, h.failAt, h.failErr = "", "", nil
}

// Visited returns the barriers traversed so far, in order.
func (h *StoreHook) Visited() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.visited...)
}

// ResetVisited clears the recorded barrier trace.
func (h *StoreHook) ResetVisited() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.visited = nil
}

// Truncate returns the leading fraction of an artifact payload — what a
// torn upload leaves in the model store.
func Truncate(data []byte, frac float64) []byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return append([]byte{}, data[:int(float64(len(data))*frac)]...)
}

// Garble returns a copy of an artifact payload with seed-chosen bytes
// flipped — bit rot that keeps the original length.
func Garble(data []byte, seed int64) []byte {
	out := append([]byte{}, data...)
	if len(out) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	flips := len(out)/16 + 1
	for i := 0; i < flips; i++ {
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	}
	return out
}
