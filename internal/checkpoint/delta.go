package checkpoint

// Codec v3: incremental delta frames. A full v2 image ("SCK\x02") is still the
// canonical representation of one rank's checkpoint; the frames below are
// alternative *storage* representations produced off the critical path by the
// background committer:
//
//   "SCD\x01"  delta frame — reconstructs the full v2 image by applying a
//              COPY/XOR/LITERAL op list against the rank's previous durable
//              full image (the delta base).
//   "SCZ\x01"  compressed-full frame — the full v2 image behind a flate layer;
//              self-describing (needs no base) and used both as the delta
//              fallback when gain is poor and as the anchor that bounds
//              recovery chains.
//
// Every frame carries the six ImageMeta fields byte-for-byte as the v2 image
// does, immediately after its 4-byte magic, so DecodeMeta works on any frame
// without materializing it (chaos durability tracking depends on that). Both
// frames pin FNV-1a checksums of the reconstructed image (and, for deltas, of
// the required base), so a wrong or corrupted base is detected at reconstruct
// time instead of yielding a silently wrong checkpoint.
//
// Matching is content-defined: a gear-hash chunker cuts base and target at
// data-dependent boundaries, matched chunks become COPY ops, and unmatched
// regions that overlap the base become XOR ops (the stencil kernels perturb
// every float a little each step, so raw chunk dedup finds almost nothing,
// while XOR against the previous wave zeroes the slowly-moving high bytes and
// flate squeezes the result). The residual XOR/LITERAL blob is flate-packed
// with a stored fallback.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

var (
	// deltaMagic identifies a delta frame (codec v3).
	deltaMagic = [4]byte{'S', 'C', 'D', 1}
	// zfullMagic identifies a compressed full-image frame (codec v3).
	zfullMagic = [4]byte{'S', 'C', 'Z', 1}
)

// FrameKind classifies an encoded checkpoint representation.
type FrameKind int

const (
	// KindFull is a plain codec-v2 image: self-describing, decodes directly.
	KindFull FrameKind = iota
	// KindCompressed is a flate-compressed full image: self-describing.
	KindCompressed
	// KindDelta reconstructs against the previous durable full image.
	KindDelta
)

func (k FrameKind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindCompressed:
		return "zfull"
	case KindDelta:
		return "delta"
	}
	return fmt.Sprintf("FrameKind(%d)", int(k))
}

// SelfDescribing reports whether a frame of this kind can be reconstructed
// without a base image.
func (k FrameKind) SelfDescribing() bool { return k != KindDelta }

// Frame returns the kind of an encoded representation, or an error if the
// magic matches no known frame.
func Frame(raw []byte) (FrameKind, error) {
	if len(raw) >= codecHeaderLen {
		switch {
		case bytes.Equal(raw[:4], codecMagic[:]):
			return KindFull, nil
		case bytes.Equal(raw[:4], zfullMagic[:]):
			return KindCompressed, nil
		case bytes.Equal(raw[:4], deltaMagic[:]):
			return KindDelta, nil
		}
	}
	return 0, fmt.Errorf("checkpoint: frame: bad magic or version")
}

// fnv1a is FNV-1a 64: the frame checksum and the chunk-index hash.
func fnv1a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// gearTable seeds the content-defined chunker; filled from splitmix64 so the
// cut points are deterministic across runs and builds.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	s := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		s += 0x9E3779B97F4A7C15
		z := s
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		t[i] = z
	}
	return t
}()

const (
	chunkMin  = 24
	chunkMax  = 512
	chunkMask = 1<<6 - 1 // expected chunk ≈ chunkMin + 64 bytes
)

// chunkSpan is one content-defined chunk of an image.
type chunkSpan struct {
	off, len int
}

// chunks cuts data at gear-hash boundaries. Boundaries depend only on local
// content, so an insertion early in the image shifts later cut points by the
// same amount and downstream chunks still match the base.
func chunks(data []byte) []chunkSpan {
	var out []chunkSpan
	start := 0
	var h uint64
	for i, b := range data {
		h = h<<1 + gearTable[b]
		n := i - start + 1
		if (n >= chunkMin && h&chunkMask == 0) || n >= chunkMax {
			out = append(out, chunkSpan{off: start, len: n})
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		out = append(out, chunkSpan{off: start, len: len(data) - start})
	}
	return out
}

// Delta op kinds, packed into the low 2 bits of the op head varint (the high
// bits carry the op length).
const (
	opCopy = 0 // copy length bytes from base at baseOff
	opXOR  = 1 // blob bytes XOR base at baseOff
	opLit  = 2 // blob bytes verbatim
)

type deltaOp struct {
	kind    int
	length  int
	baseOff int
}

// buildOps computes the COPY/XOR/LITERAL op list and residual blob that turn
// base into target.
func buildOps(target, base []byte) ([]deltaOp, []byte) {
	index := make(map[uint64]chunkSpan)
	for _, c := range chunks(base) {
		h := fnv1a(base[c.off : c.off+c.len])
		if _, ok := index[h]; !ok {
			index[h] = c
		}
	}

	var ops []deltaOp
	var blob []byte
	pendOff, pendLen := 0, 0 // unmatched target region being accumulated

	flush := func() {
		for pendLen > 0 {
			if pendOff < len(base) {
				// Aligned-XOR the part that overlaps the base: stencil state
				// drifts in place, so target[i]^base[i] is zero-heavy.
				n := pendLen
				if pendOff+n > len(base) {
					n = len(base) - pendOff
				}
				for i := 0; i < n; i++ {
					blob = append(blob, target[pendOff+i]^base[pendOff+i])
				}
				ops = append(ops, deltaOp{kind: opXOR, length: n, baseOff: pendOff})
				pendOff += n
				pendLen -= n
				continue
			}
			blob = append(blob, target[pendOff:pendOff+pendLen]...)
			ops = append(ops, deltaOp{kind: opLit, length: pendLen})
			pendOff += pendLen
			pendLen = 0
		}
	}

	for _, c := range chunks(target) {
		piece := target[c.off : c.off+c.len]
		m, ok := index[fnv1a(piece)]
		if ok && m.len == c.len && bytes.Equal(piece, base[m.off:m.off+m.len]) {
			flush()
			if n := len(ops); n > 0 && ops[n-1].kind == opCopy &&
				ops[n-1].baseOff+ops[n-1].length == m.off {
				ops[n-1].length += c.len
			} else {
				ops = append(ops, deltaOp{kind: opCopy, length: c.len, baseOff: m.off})
			}
			continue
		}
		if pendLen == 0 {
			pendOff = c.off
		}
		pendLen += c.len
	}
	flush()
	return ops, blob
}

// deflate compresses p; mode 1 means flate, mode 0 means p was stored raw
// because compression did not shrink it.
func deflate(p []byte) (mode byte, out []byte) {
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, flate.DefaultCompression)
	if err == nil {
		if _, err = w.Write(p); err == nil {
			err = w.Close()
		}
	}
	if err != nil || b.Len() >= len(p) {
		return 0, p
	}
	return 1, b.Bytes()
}

// inflate decompresses exactly n bytes of flate stream and rejects both
// truncated and oversized payloads.
func inflate(p []byte, n int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(p))
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("checkpoint: delta: truncated compressed payload: %w", err)
	}
	var extra [1]byte
	if m, _ := r.Read(extra[:]); m != 0 {
		return nil, fmt.Errorf("checkpoint: delta: oversized compressed payload")
	}
	return out, nil
}

// metaSpan returns the encoded ImageMeta bytes of any frame: the fields sit
// immediately after the 4-byte magic, in v2 field order, for every frame kind.
func metaSpan(raw []byte) ([]byte, error) {
	if len(raw) < codecHeaderLen {
		return nil, fmt.Errorf("checkpoint: frame: truncated header")
	}
	rest := raw[codecHeaderLen:]
	for i := 0; i < 5; i++ {
		_, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("checkpoint: frame: truncated meta")
		}
		rest = rest[n:]
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("checkpoint: frame: truncated meta")
	}
	rest = rest[8:]
	return raw[codecHeaderLen : len(raw)-len(rest)], nil
}

// EncodeDeltaFrame encodes full (a codec-v2 image) as a delta frame against
// base (the rank's previous durable codec-v2 image, identified by baseWave).
// The caller is expected to apply its own gain threshold to the returned
// frame's size; none is applied here.
func EncodeDeltaFrame(full, base []byte, baseWave int) ([]byte, error) {
	if _, err := DecodeMeta(full); err != nil {
		return nil, err
	}
	if len(full) < codecHeaderLen || !bytes.Equal(full[:4], codecMagic[:]) {
		return nil, fmt.Errorf("checkpoint: delta encode: target is not a full v2 image")
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("checkpoint: delta encode: empty base")
	}
	meta, err := metaSpan(full)
	if err != nil {
		return nil, err
	}

	ops, blob := buildOps(full, base)
	mode, packed := deflate(blob)

	e := encoder{out: make([]byte, 0, len(meta)+len(packed)+len(ops)*2*maxVarintLen+64)}
	e.out = append(e.out, deltaMagic[:]...)
	e.out = append(e.out, meta...)
	e.varint(int64(baseWave))
	e.uint64(uint64(len(base)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(base))
	e.uint64(uint64(len(full)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(full))
	e.uint64(uint64(len(ops)))
	for _, op := range ops {
		e.uint64(uint64(op.length)<<2 | uint64(op.kind))
		if op.kind != opLit {
			e.uint64(uint64(op.baseOff))
		}
	}
	e.out = append(e.out, mode)
	e.bytes(packed)
	return e.out, nil
}

// EncodeCompressedFrame encodes full (a codec-v2 image) as a self-describing
// compressed frame. The frame may be larger than the input on incompressible
// images; callers compare sizes and keep the raw image in that case.
func EncodeCompressedFrame(full []byte) ([]byte, error) {
	if _, err := DecodeMeta(full); err != nil {
		return nil, err
	}
	if !bytes.Equal(full[:4], codecMagic[:]) {
		return nil, fmt.Errorf("checkpoint: compress: input is not a full v2 image")
	}
	meta, err := metaSpan(full)
	if err != nil {
		return nil, err
	}
	mode, packed := deflate(full)
	e := encoder{out: make([]byte, 0, len(meta)+len(packed)+32)}
	e.out = append(e.out, zfullMagic[:]...)
	e.out = append(e.out, meta...)
	e.uint64(uint64(len(full)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(full))
	e.out = append(e.out, mode)
	e.bytes(packed)
	return e.out, nil
}

// DeltaBaseWave returns the wave number of the base image a delta frame
// reconstructs against. It errors on any self-describing frame.
func DeltaBaseWave(raw []byte) (int, error) {
	k, err := Frame(raw)
	if err != nil {
		return 0, err
	}
	if k != KindDelta {
		return 0, fmt.Errorf("checkpoint: %s frame has no delta base", k)
	}
	meta, err := metaSpan(raw)
	if err != nil {
		return 0, err
	}
	d := decoder{in: raw[codecHeaderLen+len(meta):]}
	w := d.int("delta base wave")
	if d.err != nil {
		return 0, d.err
	}
	return w, nil
}

func (d *decoder) fixed64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.in) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.in)
	d.in = d.in[8:]
	return v
}

// maxImageLen bounds the reconstructed-image size a frame header may claim,
// so corrupt input cannot drive an arbitrarily large allocation.
const maxImageLen = 1 << 27

// ReconstructFull turns any frame back into the full codec-v2 image, bit
// identical to what was encoded. A KindFull frame is returned as-is (aliasing
// raw); a KindDelta frame requires base to be the exact image identified by
// DeltaBaseWave, enforced by length+checksum. Corrupt or truncated frames,
// and wrong bases, yield an error — never a panic.
func ReconstructFull(raw, base []byte) ([]byte, error) {
	kind, err := Frame(raw)
	if err != nil {
		return nil, err
	}
	if kind == KindFull {
		return raw, nil
	}
	meta, err := metaSpan(raw)
	if err != nil {
		return nil, err
	}
	d := decoder{in: raw[codecHeaderLen+len(meta):]}

	if kind == KindCompressed {
		fullLen := d.uint64("zfull length")
		fullSum := d.fixed64("zfull checksum")
		mode := d.bool("zfull mode")
		packed := d.bytes("zfull payload")
		if d.err == nil && len(d.in) != 0 {
			d.fail("zfull trailing bytes")
		}
		if d.err != nil {
			return nil, d.err
		}
		if fullLen > maxImageLen {
			return nil, fmt.Errorf("checkpoint: zfull: absurd image length %d", fullLen)
		}
		full := packed
		if mode {
			if full, err = inflate(packed, int(fullLen)); err != nil {
				return nil, err
			}
		}
		if uint64(len(full)) != fullLen || fnv1a(full) != fullSum {
			return nil, fmt.Errorf("checkpoint: zfull: checksum mismatch")
		}
		return full, nil
	}

	// Delta frame.
	d.varint("delta base wave")
	baseLen := d.uint64("delta base length")
	baseSum := d.fixed64("delta base checksum")
	fullLen := d.uint64("delta full length")
	fullSum := d.fixed64("delta full checksum")
	opCount := d.count("delta ops")
	ops := make([]deltaOp, 0, opCount)
	for i := 0; i < opCount && d.err == nil; i++ {
		head := d.uint64("delta op head")
		op := deltaOp{kind: int(head & 3), length: int(head >> 2)}
		if op.kind == 3 || head>>2 > maxImageLen {
			d.fail("delta op")
			break
		}
		if op.kind != opLit {
			op.baseOff = int(d.uint64("delta op base offset"))
		}
		ops = append(ops, op)
	}
	mode := d.bool("delta blob mode")
	packed := d.bytes("delta blob")
	if d.err == nil && len(d.in) != 0 {
		d.fail("delta trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	if fullLen > maxImageLen {
		return nil, fmt.Errorf("checkpoint: delta: absurd image length %d", fullLen)
	}
	if uint64(len(base)) != baseLen || fnv1a(base) != baseSum {
		return nil, fmt.Errorf("checkpoint: delta: base mismatch (have %dB, frame wants %dB)", len(base), baseLen)
	}

	var blobLen int
	for _, op := range ops {
		if op.kind != opCopy {
			blobLen += op.length
		}
	}
	if blobLen > maxImageLen {
		return nil, fmt.Errorf("checkpoint: delta: absurd blob length %d", blobLen)
	}
	blob := packed
	if mode {
		if blob, err = inflate(packed, blobLen); err != nil {
			return nil, err
		}
	}
	if len(blob) != blobLen {
		return nil, fmt.Errorf("checkpoint: delta: blob length mismatch")
	}

	// Grown by append rather than pre-sized to fullLen: the in-loop overflow
	// check then bounds allocation by actual op progress, not a claimed size.
	var full []byte
	for _, op := range ops {
		switch op.kind {
		case opCopy, opXOR:
			if op.baseOff < 0 || op.length < 0 || op.baseOff+op.length > len(base) {
				return nil, fmt.Errorf("checkpoint: delta: op range outside base")
			}
			if op.kind == opCopy {
				full = append(full, base[op.baseOff:op.baseOff+op.length]...)
				continue
			}
			at := len(full)
			full = append(full, blob[:op.length]...)
			for i := 0; i < op.length; i++ {
				full[at+i] ^= base[op.baseOff+i]
			}
			blob = blob[op.length:]
		case opLit:
			full = append(full, blob[:op.length]...)
			blob = blob[op.length:]
		}
		if uint64(len(full)) > fullLen {
			return nil, fmt.Errorf("checkpoint: delta: ops overflow image length")
		}
	}
	if uint64(len(full)) != fullLen || fnv1a(full) != fullSum {
		return nil, fmt.Errorf("checkpoint: delta: checksum mismatch")
	}
	return full, nil
}
