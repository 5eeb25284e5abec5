package checkpoint

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/buf"
)

// FaultOp names a storage operation a fault rule can target.
type FaultOp string

const (
	// OpStage targets StageImage (and so Save): the slow write of an image
	// to stable storage.
	OpStage FaultOp = "stage"
	// OpCommit targets the commit closure returned by StageImage: the atomic
	// publish of a staged image.
	OpCommit FaultOp = "commit"
	// OpLoad targets Load: the recovery-time read of a rank's checkpoint.
	OpLoad FaultOp = "load"
)

// FaultMode is what an injected fault does to the targeted operation.
type FaultMode string

const (
	// ModeFail makes the operation return an injected error.
	ModeFail FaultMode = "fail"
	// ModeStall blocks the operation — until the rule's Block channel is
	// closed if one is set, else for the rule's Delay — then lets it proceed.
	ModeStall FaultMode = "stall"
	// ModeCorrupt flips bytes of the staged image behind its codec magic, so
	// the corruption is only *detected* later, when recovery decodes the
	// image. On commit and load (no image bytes in hand) it degrades to an
	// injected corruption error.
	ModeCorrupt FaultMode = "corrupt"
)

// FaultRule selects storage operations to sabotage. A rule matches an
// operation when the op kind matches, the rank matches (Rank < 0 is a
// wildcard), and the operation's per-rule occurrence index falls in
// [After, After+Count) — Count <= 0 means every occurrence from After on.
type FaultRule struct {
	Op   FaultOp
	Mode FaultMode
	Rank int
	// After skips the first After matching operations before injecting.
	After int
	// Count bounds how many times the rule injects; <= 0 is unlimited.
	Count int
	// Block, when set, is what ModeStall waits on (until close). It
	// overrides Delay, and lets a chaos scenario hold an image undurable
	// until a lifecycle hook releases it.
	Block <-chan struct{}
	// Delay is the stall duration when Block is nil.
	Delay time.Duration
}

// Validate rejects rules that could never fire or that combine fields
// incoherently — a misspelled Op or Mode, a negative After or Count, or a
// Delay on a mode that never sleeps would otherwise sit silently in the rule
// list and never match, which in a chaos schedule reads as "the run survived
// the fault" when no fault was injected at all.
func (r FaultRule) Validate() error {
	switch r.Op {
	case OpStage, OpCommit, OpLoad:
	default:
		return fmt.Errorf("checkpoint: fault rule has unknown op %q (want %q, %q, or %q)", string(r.Op), OpStage, OpCommit, OpLoad)
	}
	switch r.Mode {
	case ModeFail, ModeStall, ModeCorrupt:
	default:
		return fmt.Errorf("checkpoint: fault rule has unknown mode %q (want %q, %q, or %q)", string(r.Mode), ModeFail, ModeStall, ModeCorrupt)
	}
	if r.After < 0 {
		return fmt.Errorf("checkpoint: fault rule has negative After %d", r.After)
	}
	if r.Count < 0 {
		return fmt.Errorf("checkpoint: fault rule has negative Count %d (use 0 for unlimited)", r.Count)
	}
	if r.Delay < 0 {
		return fmt.Errorf("checkpoint: fault rule has negative Delay %s", r.Delay)
	}
	if r.Mode != ModeStall && (r.Delay != 0 || r.Block != nil) {
		return fmt.Errorf("checkpoint: fault rule sets a stall (Delay/Block) but mode is %q, not %q", string(r.Mode), ModeStall)
	}
	return nil
}

type ruleState struct {
	FaultRule
	seen int // matching operations observed
	hits int // injections performed
}

// ruleSet is the concurrency-safe rule matcher shared by FaultStorage and the
// cold-tier FaultColdStore decorator.
type ruleSet struct {
	mu    sync.Mutex
	rules []*ruleState
}

// newRuleSet validates every rule up front; a rule that could never fire is a
// configuration bug, not a survivable chaos schedule.
func newRuleSet(rules []FaultRule) (*ruleSet, error) {
	s := &ruleSet{}
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		s.rules = append(s.rules, &ruleState{FaultRule: r})
	}
	return s, nil
}

// match finds the first rule that claims this operation and records the
// injection. Occurrence counting is per rule, so independent rules do not
// steal each other's matches.
func (s *ruleSet) match(op FaultOp, rank int) *ruleState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules {
		if r.Op != op || (r.Rank >= 0 && r.Rank != rank) {
			continue
		}
		idx := r.seen
		r.seen++
		if idx < r.After || (r.Count > 0 && idx >= r.After+r.Count) {
			continue
		}
		r.hits++
		return r
	}
	return nil
}

// injections returns how many faults each rule injected, in rule order.
func (s *ruleSet) injections() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.rules))
	for i, r := range s.rules {
		out[i] = r.hits
	}
	return out
}

// FaultStorage decorates a Storage with rule-driven fault injection on
// Stage/Commit/Load: fail, stall, or corrupt. It is the storage half of the
// chaos subsystem — the counterpart of the engine's fault-point registry —
// and is safe for concurrent use like the storages it wraps.
type FaultStorage struct {
	inner Storage
	rs    *ruleSet
}

// NewFaultStorage wraps a Storage with the given fault rules.
func NewFaultStorage(inner Storage, rules ...FaultRule) (*FaultStorage, error) {
	rs, err := newRuleSet(rules)
	if err != nil {
		return nil, err
	}
	return &FaultStorage{inner: inner, rs: rs}, nil
}

// Unwrap exposes the decorated storage, so capability probes (e.g. the
// committer looking for a delta-aware tier) can see through the decorator.
func (f *FaultStorage) Unwrap() Storage { return f.inner }

// Injections returns how many faults each rule injected, in rule order.
func (f *FaultStorage) Injections() []int { return f.rs.injections() }

// TotalInjections returns the total number of injected faults.
func (f *FaultStorage) TotalInjections() int {
	n := 0
	for _, h := range f.Injections() {
		n += h
	}
	return n
}

func (f *FaultStorage) match(op FaultOp, rank int) *ruleState { return f.rs.match(op, rank) }

func (r *ruleState) stall() {
	if r.Block != nil {
		<-r.Block
		return
	}
	time.Sleep(r.Delay)
}

// corruptImage flips bytes past the codec header, leaving the magic valid:
// the image stages and publishes cleanly and the damage surfaces only when
// recovery decodes it — the detected-corruption regime.
func corruptImage(image *buf.Buffer) {
	data := image.Bytes()
	for i := codecHeaderLen; i < len(data); i++ {
		data[i] ^= 0xff
	}
}

// StageImage implements Storage with stage-targeted injection.
func (f *FaultStorage) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	if r := f.match(OpStage, rank); r != nil {
		switch r.Mode {
		case ModeFail:
			return nil, nil, fmt.Errorf("checkpoint: injected stage fault (rank %d)", rank)
		case ModeStall:
			r.stall()
		case ModeCorrupt:
			corruptImage(image)
		}
	}
	commit, abort, err := f.inner.StageImage(rank, image)
	if err != nil {
		return nil, nil, err
	}
	wrapped := func() error {
		if r := f.match(OpCommit, rank); r != nil {
			switch r.Mode {
			case ModeFail, ModeCorrupt:
				return fmt.Errorf("checkpoint: injected commit fault (rank %d)", rank)
			case ModeStall:
				r.stall()
			}
		}
		return commit()
	}
	return wrapped, abort, nil
}

// Save implements the one-phase Storage path; stage rules apply through
// StageImage.
func (f *FaultStorage) Save(cp *Checkpoint) error { return StageAndCommit(f, cp) }

// Load implements Storage with load-targeted injection.
func (f *FaultStorage) Load(rank int) (*Checkpoint, bool, error) {
	if r := f.match(OpLoad, rank); r != nil {
		switch r.Mode {
		case ModeFail:
			return nil, false, fmt.Errorf("checkpoint: injected load fault (rank %d)", rank)
		case ModeCorrupt:
			return nil, false, fmt.Errorf("checkpoint: injected corruption detected on load (rank %d)", rank)
		case ModeStall:
			r.stall()
		}
	}
	return f.inner.Load(rank)
}

// Ranks delegates to the wrapped storage.
func (f *FaultStorage) Ranks() ([]int, error) { return f.inner.Ranks() }

var _ Storage = (*FaultStorage)(nil)
