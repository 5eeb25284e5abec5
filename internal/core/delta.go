package core

import (
	"sync"

	"repro/internal/buf"
	"repro/internal/checkpoint"
)

// The committer's delta pipeline. When the storage stack contains a
// delta-capable tier (TieredStorage; MemoryStorage is not, so its byte stream
// is unchanged), each rank's wave is re-encoded as a codec-v3 frame against
// the rank's previous *published* full image before staging: a delta frame
// when the chain is short and the gain clears minGain, a compressed or raw
// full frame otherwise. The base map advances only when a wave actually
// publishes — canceled waves never move it — which is exactly the
// durable-wave invariant recovery depends on: every delta's base is a
// durable wave of the same rank.

const (
	// maxChain bounds the recovery chain: after maxChain-1 consecutive delta
	// frames the next wave is forced to a self-describing full frame.
	maxChain = 8
	// minGain is the admission threshold: a delta frame is kept only if its
	// size is at most minGain × the full image's size; otherwise the wave
	// falls back to a full frame.
	minGain = 0.9
)

// storageUnwrapper lets the probe see through decorators (FaultStorage, the
// chaos durability tracker).
type storageUnwrapper interface {
	Unwrap() checkpoint.Storage
}

// hasDeltaTier walks the storage decorator chain looking for the
// delta-capable tier, the one Storage that understands codec-v3 frames.
func hasDeltaTier(st checkpoint.Storage) bool {
	for st != nil {
		if _, ok := st.(*checkpoint.TieredStorage); ok {
			return true
		}
		u, ok := st.(storageUnwrapper)
		if !ok {
			break
		}
		st = u.Unwrap()
	}
	return false
}

// prevImage is a rank's delta base: its last published full image.
type prevImage struct {
	img   *buf.Buffer // retained full v2 image
	wave  int
	chain int // consecutive delta frames since the last anchor
}

// deltaPlan carries one staged member's encoding decision from stage to
// publish: the retained full image that becomes the rank's next base, and
// the byte accounting for the volume metrics.
type deltaPlan struct {
	rank      int
	wave      int
	full      *buf.Buffer
	chain     int
	fullLen   int
	stagedLen int
	isDelta   bool
}

// drop releases the plan's retained image (abort/cancel paths).
func (p *deltaPlan) drop() {
	if p != nil {
		p.full.Release()
	}
}

// deltaState is the committer-global base map. One mutex, not per shard:
// adaptive epoch switches can move a rank to a different cluster — and so a
// different shard goroutine — between waves (the switch flushes the
// committer, so per-rank stage order still holds).
type deltaState struct {
	mu   sync.Mutex
	prev map[int]*prevImage
}

func newDeltaState() *deltaState {
	return &deltaState{prev: make(map[int]*prevImage)}
}

// encode picks the staged representation for one member's full image. It
// does not take over the caller's image reference; the returned buffer
// always carries its own reference, and the returned plan retains the full
// image until publish or drop.
func (d *deltaState) encode(rank, wave int, full *buf.Buffer) (*buf.Buffer, *deltaPlan) {
	fb := full.Bytes()
	plan := &deltaPlan{rank: rank, wave: wave, full: full.Retain(), fullLen: len(fb)}

	d.mu.Lock()
	p := d.prev[rank]
	var base *buf.Buffer
	baseWave, chain := -1, 0
	if p != nil {
		base = p.img.Retain()
		baseWave, chain = p.wave, p.chain
	}
	d.mu.Unlock()

	if base != nil && chain+1 < maxChain {
		frame, err := checkpoint.EncodeDeltaFrame(fb, base.Bytes(), baseWave)
		if err == nil && float64(len(frame)) <= minGain*float64(len(fb)) {
			base.Release()
			plan.chain = chain + 1
			plan.isDelta = true
			plan.stagedLen = len(frame)
			return frameBuffer(frame), plan
		}
	}
	if base != nil {
		base.Release()
	}

	// Anchor (or poor-gain fallback): a self-describing full frame,
	// compressed when that actually shrinks it.
	if frame, err := checkpoint.EncodeCompressedFrame(fb); err == nil && len(frame) < len(fb) {
		plan.stagedLen = len(frame)
		return frameBuffer(frame), plan
	}
	plan.stagedLen = len(fb)
	return full.Retain(), plan
}

// publish advances the rank's base to the published wave's full image,
// taking over the plan's reference.
func (d *deltaState) publish(p *deltaPlan) {
	d.mu.Lock()
	old := d.prev[p.rank]
	d.prev[p.rank] = &prevImage{img: p.full, wave: p.wave, chain: p.chain}
	d.mu.Unlock()
	if old != nil {
		old.img.Release()
	}
}

// close releases every base (end of run).
func (d *deltaState) close() {
	d.mu.Lock()
	prev := d.prev
	d.prev = make(map[int]*prevImage)
	d.mu.Unlock()
	for _, p := range prev {
		p.img.Release()
	}
}

// frameBuffer copies an encoded frame into a pooled buffer for StageImage.
func frameBuffer(frame []byte) *buf.Buffer {
	b := buf.Get(len(frame))
	copy(b.Bytes(), frame)
	b.Truncate(len(frame))
	return b
}
