package checkpoint

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/buf"
)

// tierImage encodes a drifting-state checkpoint for (rank, wave).
func tierImage(t *testing.T, rank, wave int) []byte {
	t.Helper()
	cp := driftCheckpoint(256, wave)
	cp.Rank = rank
	return encodeAt(t, cp, wave)
}

func stageFrame(t *testing.T, ts *TieredStorage, rank int, frame []byte) {
	t.Helper()
	b := buf.Copy(frame)
	commit, abort, err := ts.StageImage(rank, b)
	b.Release()
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := commit(); err != nil {
		abort()
		t.Fatalf("commit: %v", err)
	}
}

func loadEqual(t *testing.T, ts *TieredStorage, rank int, wantImage []byte) {
	t.Helper()
	got, ok, err := ts.Load(rank)
	if err != nil || !ok {
		t.Fatalf("load rank %d: ok=%v err=%v", rank, ok, err)
	}
	want, err := Decode(wantImage)
	if err != nil {
		t.Fatalf("decode want: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank %d: recovered checkpoint differs from staged wave %d", rank, want.Wave)
	}
}

func TestTieredStageLoadRoundTrip(t *testing.T) {
	cold := NewMemColdStore()
	ts := NewTieredStorage(TieredConfig{Cold: cold})
	last := map[int][]byte{}
	for rank := 0; rank < 2; rank++ {
		for wave := 1; wave <= 3; wave++ {
			img := tierImage(t, rank, wave)
			stageFrame(t, ts, rank, img)
			last[rank] = img
		}
	}
	for rank, img := range last {
		loadEqual(t, ts, rank, img)
	}
	ranks, err := ts.Ranks()
	if err != nil || !reflect.DeepEqual(ranks, []int{0, 1}) {
		t.Fatalf("ranks %v err %v", ranks, err)
	}
	if _, ok, err := ts.Load(9); ok || err != nil {
		t.Fatalf("absent rank: ok=%v err=%v", ok, err)
	}

	// Raw full images are self-describing anchors, so anchor GC must leave
	// exactly the newest wave in the cold tier once demotions settle.
	ts.Quiesce()
	for rank := 0; rank < 2; rank++ {
		waves, err := cold.Waves(rank)
		if err != nil || !reflect.DeepEqual(waves, []int{3}) {
			t.Fatalf("rank %d: cold waves after anchor GC = %v err %v", rank, waves, err)
		}
	}
	if ts.ReplicaFallbacks() != 0 {
		t.Fatalf("unexpected replica fallbacks: %d", ts.ReplicaFallbacks())
	}
	if err := ts.LostErr(); err != nil {
		t.Fatalf("lost copies: %v", err)
	}
}

// TestTieredDeltaChainColdWalk disables the hot ring so recovery must walk a
// full→delta→delta chain out of the cold tier.
func TestTieredDeltaChainColdWalk(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{HotWaves: -1})
	fulls := [][]byte{tierImage(t, 0, 0), tierImage(t, 0, 1), tierImage(t, 0, 2)}
	stageFrame(t, ts, 0, fulls[0])
	for w := 1; w <= 2; w++ {
		stageFrame(t, ts, 0, mustDelta(t, fulls[w], fulls[w-1], w-1))
	}
	ts.Quiesce()
	loadEqual(t, ts, 0, fulls[2])
	if ts.ReplicaFallbacks() != 0 {
		t.Fatalf("chain walk should not have needed a replica")
	}
}

// TestTieredHotFastPath proves the steady-state recovery path never touches
// the cold tier: the primary fails every Get, yet Load succeeds because the
// materialized image sits in the hot ring.
func TestTieredHotFastPath(t *testing.T) {
	broken, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpLoad, Mode: ModeFail, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{Cold: broken})
	fulls := [][]byte{tierImage(t, 0, 0), tierImage(t, 0, 1)}
	stageFrame(t, ts, 0, fulls[0])
	// The delta's base is hot, so the full image materializes at stage time.
	stageFrame(t, ts, 0, mustDelta(t, fulls[1], fulls[0], 0))
	loadEqual(t, ts, 0, fulls[1])
}

func TestTieredReplicaFallbackOnPrimaryGetFailure(t *testing.T) {
	broken, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpLoad, Mode: ModeFail, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{
		HotWaves: -1,
		Cold:     broken,
		Replica:  NewMemColdStore(),
	})
	img := tierImage(t, 2, 5)
	stageFrame(t, ts, 2, img)
	ts.Quiesce()
	loadEqual(t, ts, 2, img)
	if ts.ReplicaFallbacks() != 1 {
		t.Fatalf("replica fallbacks = %d, want 1", ts.ReplicaFallbacks())
	}
}

// TestTieredReplicaFallbackOnColdCorruption damages the primary *copy* (the
// write path corrupts what lands on the primary), so recovery reads a frame
// that fails verification and must degrade to the buddy replica.
func TestTieredReplicaFallbackOnColdCorruption(t *testing.T) {
	corrupting, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpStage, Mode: ModeCorrupt, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{
		HotWaves: -1,
		Cold:     corrupting,
		Replica:  NewMemColdStore(),
	})
	img := tierImage(t, 0, 4)
	stageFrame(t, ts, 0, img)
	ts.Quiesce()
	if got := corrupting.Injections(); got[0] == 0 {
		t.Fatalf("corruption rule never fired")
	}
	loadEqual(t, ts, 0, img)
	if ts.ReplicaFallbacks() != 1 {
		t.Fatalf("replica fallbacks = %d, want 1", ts.ReplicaFallbacks())
	}
}

// TestTieredCorruptionWithoutReplicaErrors pins the detected-corruption
// regime: with a single damaged copy and no buddy, recovery must error —
// never return a wrong checkpoint.
func TestTieredCorruptionWithoutReplicaErrors(t *testing.T) {
	corrupting, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpStage, Mode: ModeCorrupt, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{HotWaves: -1, Cold: corrupting})
	stageFrame(t, ts, 0, tierImage(t, 0, 1))
	ts.Quiesce()
	if _, _, err := ts.Load(0); err == nil {
		t.Fatalf("load of a corrupt sole copy did not error")
	}
}

// TestTieredUndecodableFrameDetectedAtRecovery: a frame whose meta cannot be
// decoded still stages (FaultStorage's corrupt-at-stage regime) and surfaces
// as a recovery error, not a silent drop.
func TestTieredUndecodableFrameDetectedAtRecovery(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{HotWaves: -1})
	stageFrame(t, ts, 0, tierImage(t, 0, 1))
	stageFrame(t, ts, 0, []byte("not a checkpoint frame at all"))
	ts.Quiesce()
	if _, _, err := ts.Load(0); err == nil {
		t.Fatalf("recovery accepted an undecodable latest wave")
	}
}

func TestTieredAnchorGCWithDeltaChain(t *testing.T) {
	cold := NewMemColdStore()
	ts := NewTieredStorage(TieredConfig{Cold: cold})
	fulls := make([][]byte, 5)
	for w := range fulls {
		fulls[w] = tierImage(t, 0, w)
	}
	stageFrame(t, ts, 0, fulls[1])
	stageFrame(t, ts, 0, mustDelta(t, fulls[2], fulls[1], 1))
	stageFrame(t, ts, 0, mustDelta(t, fulls[3], fulls[2], 2))
	stageFrame(t, ts, 0, fulls[4]) // forced full: the new anchor
	ts.Quiesce()
	waves, err := cold.Waves(0)
	if err != nil || !reflect.DeepEqual(waves, []int{4}) {
		t.Fatalf("cold waves after anchor = %v err %v", waves, err)
	}
	loadEqual(t, ts, 0, fulls[4])
}

func TestTieredLostCopiesReported(t *testing.T) {
	failing, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{Cold: failing})
	stageFrame(t, ts, 0, tierImage(t, 0, 1))
	ts.Quiesce()
	if ts.LostErr() == nil {
		t.Fatalf("both copies failed but LostErr is nil")
	}
	if ts.Demotions() != 1 {
		t.Fatalf("demotions = %d, want 1", ts.Demotions())
	}
}

func TestDirColdStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cs, err := NewDirColdStore(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(0, 0); err != ErrNoFrame {
		t.Fatalf("absent get err = %v, want ErrNoFrame", err)
	}
	if err := cs.Put(3, 7, []byte("frame-a")); err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(3, 9, []byte("frame-b")); err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(3, 7, []byte("frame-a2")); err != nil {
		t.Fatal(err)
	}
	got, err := cs.Get(3, 7)
	if err != nil || string(got) != "frame-a2" {
		t.Fatalf("get = %q err %v", got, err)
	}
	waves, err := cs.Waves(3)
	if err != nil || !reflect.DeepEqual(waves, []int{7, 9}) {
		t.Fatalf("waves = %v err %v", waves, err)
	}
	ranks, err := cs.Ranks()
	if err != nil || !reflect.DeepEqual(ranks, []int{3}) {
		t.Fatalf("ranks = %v err %v", ranks, err)
	}
	if err := cs.Delete(3, 7); err != nil {
		t.Fatal(err)
	}
	if err := cs.Delete(3, 7); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := cs.Get(3, 7); err != ErrNoFrame {
		t.Fatalf("deleted get err = %v, want ErrNoFrame", err)
	}
}

// TestTieredThroughDirColdStore runs the tier end to end over the
// directory-backed cold store, hot ring disabled.
func TestTieredThroughDirColdStore(t *testing.T) {
	cs, err := NewDirColdStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{HotWaves: -1, Cold: cs})
	fulls := [][]byte{tierImage(t, 1, 0), tierImage(t, 1, 1)}
	stageFrame(t, ts, 1, fulls[0])
	stageFrame(t, ts, 1, mustDelta(t, fulls[1], fulls[0], 0))
	ts.Quiesce()
	loadEqual(t, ts, 1, fulls[1])

	// A fresh tier over the same directory must recover from cold alone.
	reopened := NewTieredStorage(TieredConfig{HotWaves: -1, Cold: cs})
	loadEqual(t, reopened, 1, fulls[1])
}

func TestTieredAbortReleasesStaged(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{})
	b := buf.Copy(tierImage(t, 0, 1))
	_, abort, err := ts.StageImage(0, b)
	if err != nil {
		t.Fatal(err)
	}
	abort()
	if b.Refs() != 1 {
		t.Fatalf("refs after abort = %d, want 1 (caller's)", b.Refs())
	}
	b.Release()
	if _, ok, err := ts.Load(0); ok || err != nil {
		t.Fatalf("aborted stage visible: ok=%v err=%v", ok, err)
	}
}
