package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// TestMemoryStorageLoadAliasing is the aliasing regression for the
// shared-image store: Load hands out a decoded copy, so mutating every part
// of a loaded checkpoint — app state, log payloads, queued payloads, maps —
// must not corrupt the stored image or other loads.
func TestMemoryStorageLoadAliasing(t *testing.T) {
	st := NewMemoryStorage()
	if err := st.Save(sampleCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	if st.Saves() != 1 {
		t.Fatalf("Saves = %d, want 1", st.Saves())
	}
	pristine, _, err := st.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := st.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	// Deface everything reachable.
	loaded.AppState[0] ^= 0xff
	loaded.Logs[0].Payload[0] ^= 0xff
	loaded.Channels.Queued[0].Payload[0] ^= 0xff
	loaded.Channels.Out[mpi.ChanKey{Peer: 1, Comm: 0}] = 999
	loaded.Channels.In[mpi.ChanKey{Peer: 2, Comm: 0}] = mpi.InChannelState{}
	loaded.Channels.CollSeq[0] = 999
	loaded.Iteration = -42

	again, _, err := st.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, pristine) {
		t.Fatalf("mutating a loaded checkpoint corrupted the store:\nwant %+v\ngot  %+v", pristine, again)
	}
}

// TestMemoryStorageSharesImageNotStructures pins that two loads are fully
// independent structures (no shared backing arrays).
func TestMemoryStorageSharesImageNotStructures(t *testing.T) {
	st := NewMemoryStorage()
	if err := st.Save(sampleCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	a, _, _ := st.Load(3)
	b, _, _ := st.Load(3)
	a.AppState[0] = 0x55
	if b.AppState[0] == 0x55 {
		t.Fatal("two loads share AppState backing memory")
	}
	a.Logs[0].Payload[0] = 0x55
	if b.Logs[0].Payload[0] == 0x55 {
		t.Fatal("two loads share log payload backing memory")
	}
}

// captureCheckpoint builds a capture-form checkpoint whose payloads alias
// retained pooled buffers, as the engine's in-barrier capture does.
func captureCheckpoint(rank int) (*Checkpoint, []*buf.Buffer) {
	logPayload := buf.Copy([]byte("xy"))
	queuedPayload := buf.Copy([]byte("abc"))
	cp := sampleCheckpoint(rank)
	cp.Logs[0].Payload = logPayload.Bytes()
	cp.Channels.Queued[0].Payload = queuedPayload.Bytes()
	refs := []*buf.Buffer{logPayload, queuedPayload}
	cp.HoldShared(refs)
	return cp, refs
}

// TestCaptureFormSaveAndRelease pins the capture-form contract: a checkpoint
// holding retained pooled buffers encodes to the same image as the
// materialized equivalent, and ReleaseShared drops exactly the held
// references.
func TestCaptureFormSaveAndRelease(t *testing.T) {
	cp, refs := captureCheckpoint(7)
	if !cp.Shared() {
		t.Fatal("capture-form checkpoint must report Shared")
	}
	want, err := Encode(sampleCheckpoint(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("capture-form and materialized checkpoints encode differently")
	}
	st := NewMemoryStorage()
	if err := st.Save(cp); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Refs() != 1 {
			t.Fatalf("ref count %d before release, want 1 (storage must keep the image, not the buffers)", r.Refs())
		}
	}
	cp.ReleaseShared()
	if cp.Shared() {
		t.Fatal("ReleaseShared must clear the capture form")
	}
	back, ok, err := st.Load(7)
	if err != nil || !ok {
		t.Fatalf("load after release: %v %v", ok, err)
	}
	if string(back.Logs[0].Payload) != "xy" || string(back.Channels.Queued[0].Payload) != "abc" {
		t.Fatal("stored image depends on released buffers")
	}
}

// storageCases are the Storage implementations every conformance check runs
// over. The constructors register their own cleanup (demotions must settle
// before a temp directory is removed).
var storageCases = []struct {
	name string
	make func(t *testing.T) Storage
}{
	{"memory", func(t *testing.T) Storage { return NewMemoryStorage() }},
	{"tiered-mem-cold", func(t *testing.T) Storage {
		ts := NewTieredStorage(TieredConfig{})
		t.Cleanup(ts.Quiesce)
		return ts
	}},
	{"tiered-dir-cold", func(t *testing.T) Storage {
		cs, err := NewDirColdStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ts := NewTieredStorage(TieredConfig{Cold: cs})
		t.Cleanup(ts.Quiesce)
		return ts
	}},
	{"fault-no-rules", func(t *testing.T) Storage { return mustFaultStorage(t, NewMemoryStorage()) }},
}

// TestStorageConformance pins the Storage contract on every implementation:
// Save→Load round trip, latest wins, invalid checkpoints rejected, and the
// two-phase rules (a stage is invisible until commit, an abort leaves
// nothing).
func TestStorageConformance(t *testing.T) {
	for _, sc := range storageCases {
		t.Run(sc.name+"/round-trip", func(t *testing.T) {
			st := sc.make(t)
			if _, ok, err := st.Load(0); ok || err != nil {
				t.Fatalf("empty storage: ok=%v err=%v, want a miss", ok, err)
			}
			for _, rank := range []int{2, 0} {
				cp := driftCheckpoint(64, rank)
				cp.Rank = rank
				if err := st.Save(cp); err != nil {
					t.Fatalf("save rank %d: %v", rank, err)
				}
				got, ok, err := st.Load(rank)
				if err != nil || !ok {
					t.Fatalf("load rank %d: ok=%v err=%v", rank, ok, err)
				}
				if !reflect.DeepEqual(got, cp) {
					t.Fatalf("rank %d: loaded checkpoint differs from the saved one", rank)
				}
			}
			ranks, err := st.Ranks()
			if err != nil || !reflect.DeepEqual(ranks, []int{0, 2}) {
				t.Fatalf("Ranks = %v, %v; want [0 2]", ranks, err)
			}
		})
		t.Run(sc.name+"/latest-wins", func(t *testing.T) {
			st := sc.make(t)
			for wave, iter := range []int{10, 20} {
				cp := sampleCheckpoint(1)
				cp.Wave, cp.Iteration = wave, iter
				if err := st.Save(cp); err != nil {
					t.Fatal(err)
				}
			}
			got, ok, err := st.Load(1)
			if err != nil || !ok || got.Iteration != 20 {
				t.Fatalf("load after two saves: %+v ok=%v err=%v, want iteration 20", got, ok, err)
			}
		})
		t.Run(sc.name+"/invalid-rejected", func(t *testing.T) {
			st := sc.make(t)
			if err := st.Save(&Checkpoint{Rank: -1}); err == nil {
				t.Fatal("invalid checkpoint accepted by Save")
			}
			if err := st.Save(&Checkpoint{Rank: 3}); err == nil {
				t.Fatal("checkpoint without channel snapshot accepted by Save")
			}
			if ranks, err := st.Ranks(); err != nil || len(ranks) != 0 {
				t.Fatalf("rejected saves left ranks %v, %v", ranks, err)
			}
		})
		t.Run(sc.name+"/stage-commit-abort", func(t *testing.T) {
			st := sc.make(t)
			// Stage two ranks in parallel; neither is visible before commit.
			commits := make([]func() error, 2)
			aborts := make([]func(), 2)
			var wg sync.WaitGroup
			for i := range commits {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					img, err := EncodeBuffer(sampleCheckpoint(i))
					if err != nil {
						t.Error(err)
						return
					}
					defer img.Release()
					commits[i], aborts[i], err = st.StageImage(i, img)
					if err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if ranks, _ := st.Ranks(); len(ranks) != 0 {
				t.Fatalf("staged images already visible: %v", ranks)
			}
			if _, ok, _ := st.Load(0); ok {
				t.Fatal("staged image loadable before commit")
			}
			if err := commits[0](); err != nil {
				t.Fatal(err)
			}
			aborts[1]()
			ranks, err := st.Ranks()
			if err != nil || !reflect.DeepEqual(ranks, []int{0}) {
				t.Fatalf("Ranks after commit+abort = %v, %v; want [0]", ranks, err)
			}
			if cp, ok, err := st.Load(0); err != nil || !ok || cp.Rank != 0 {
				t.Fatalf("committed checkpoint unreadable: %v %v %v", cp, ok, err)
			}
			if _, ok, err := st.Load(1); ok || err != nil {
				t.Fatalf("aborted stage visible: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestDirColdStoreFailedPutLeavesNoTmp is the temp-file leak regression: a
// Put whose temp write fails must error, leave no temp file behind, and keep
// the previous frame of the key.
func TestDirColdStoreFailedPutLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	cs, err := NewDirColdStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(0, 1, []byte("frame-a")); err != nil {
		t.Fatal(err)
	}
	// Force the write itself to fail: the next temp path (the seq counter is
	// at 1 after the Put above) is occupied by a directory, so os.WriteFile
	// errors. The failed Put must clean up after itself.
	rankDir := filepath.Join(dir, "rank-000000")
	if err := os.Mkdir(filepath.Join(rankDir, "wave-000000001.ckpt.2.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(0, 1, []byte("frame-b")); err == nil {
		t.Fatal("put over an unwritable temp path did not error")
	}
	entries, err := os.ReadDir(rankDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wave-000000001.ckpt" {
		t.Fatalf("rank directory after a failed put = %v, want only the committed frame", entries)
	}
	if got, err := cs.Get(0, 1); err != nil || string(got) != "frame-a" {
		t.Fatalf("get after a failed put = %q, %v; want the previous frame", got, err)
	}
}

// TestDirColdStoreListingsIgnoreTmp pins that staged (uncommitted) temp files
// are never reported as frames: Waves skips them, and a rank whose directory
// holds only temp files has no frame, so Ranks skips it.
func TestDirColdStoreListingsIgnoreTmp(t *testing.T) {
	dir := t.TempDir()
	cs, err := NewDirColdStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(0, 1, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, "rank-000000", "wave-000000005.ckpt.9.tmp"),
		filepath.Join(dir, "rank-000004", "wave-000000002.ckpt.3.tmp"),
	} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if waves, err := cs.Waves(0); err != nil || !reflect.DeepEqual(waves, []int{1}) {
		t.Fatalf("Waves(0) = %v, %v; want [1]", waves, err)
	}
	if waves, err := cs.Waves(4); err != nil || len(waves) != 0 {
		t.Fatalf("Waves(4) = %v, %v; want none", waves, err)
	}
	if ranks, err := cs.Ranks(); err != nil || !reflect.DeepEqual(ranks, []int{0}) {
		t.Fatalf("Ranks = %v, %v; want [0]", ranks, err)
	}
}
