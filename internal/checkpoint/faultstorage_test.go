package checkpoint

import (
	"strings"
	"testing"
	"time"
)

func TestDecodeMeta(t *testing.T) {
	cp := sampleCheckpoint(3)
	cp.Wave = 4
	raw, err := Encode(cp)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	m, err := DecodeMeta(raw)
	if err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
	want := ImageMeta{Rank: 3, Cluster: 0, Iteration: 10, Epoch: 2, Wave: 4, Time: 1.5}
	if m != want {
		t.Fatalf("meta = %+v, want %+v", m, want)
	}
	if _, err := DecodeMeta(raw[:3]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeMeta([]byte("XXXXgarbage")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeMeta(raw[:codecHeaderLen+1]); err == nil {
		t.Fatal("truncated meta prefix accepted")
	}
}

func mustFaultStorage(t *testing.T, inner Storage, rules ...FaultRule) *FaultStorage {
	t.Helper()
	fs, err := NewFaultStorage(inner, rules...)
	if err != nil {
		t.Fatalf("NewFaultStorage: %v", err)
	}
	return fs
}

func TestFaultRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		rule FaultRule
		want string // substring of the expected error; "" means valid
	}{
		{"valid fail", FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1}, ""},
		{"valid stall with delay", FaultRule{Op: OpCommit, Mode: ModeStall, Rank: 0, Delay: time.Millisecond}, ""},
		{"valid stall with block", FaultRule{Op: OpLoad, Mode: ModeStall, Rank: -1, Block: make(chan struct{})}, ""},
		{"unknown op", FaultRule{Op: "stge", Mode: ModeFail, Rank: -1}, `unknown op "stge"`},
		{"empty op", FaultRule{Mode: ModeFail, Rank: -1}, "unknown op"},
		{"unknown mode", FaultRule{Op: OpStage, Mode: "crash", Rank: -1}, `unknown mode "crash"`},
		{"negative after", FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1, After: -1}, "negative After"},
		{"negative count", FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1, Count: -2}, "negative Count"},
		{"negative delay", FaultRule{Op: OpStage, Mode: ModeStall, Rank: -1, Delay: -time.Second}, "negative Delay"},
		{"delay without stall", FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1, Delay: time.Second}, `mode is "fail", not "stall"`},
		{"block without stall", FaultRule{Op: OpLoad, Mode: ModeCorrupt, Rank: -1, Block: make(chan struct{})}, "not \"stall\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rule.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v, want ok", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted %+v, want error containing %q", tc.rule, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
			// NewFaultStorage must reject it too, naming the rule index.
			if _, nerr := NewFaultStorage(NewMemoryStorage(), FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1}, tc.rule); nerr == nil {
				t.Fatal("NewFaultStorage accepted an invalid rule")
			} else if !strings.Contains(nerr.Error(), "rule 1") {
				t.Fatalf("NewFaultStorage error %q does not name the offending rule", nerr)
			}
		})
	}
}

func TestFaultStorageFailAndCount(t *testing.T) {
	fs := mustFaultStorage(t, NewMemoryStorage(),
		FaultRule{Op: OpStage, Mode: ModeFail, Rank: 1, After: 1, Count: 1})

	// First stage of rank 1 passes (After skips it), the second fails, the
	// third passes again (Count exhausted). Other ranks never match.
	for i, wantErr := range []bool{false, true, false} {
		err := fs.Save(sampleCheckpoint(1))
		if (err != nil) != wantErr {
			t.Fatalf("save %d of rank 1: err=%v, want error=%v", i, err, wantErr)
		}
	}
	if err := fs.Save(sampleCheckpoint(0)); err != nil {
		t.Fatalf("save of rank 0 must not match a rank-1 rule: %v", err)
	}
	if got := fs.Injections(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("injections = %v, want [1]", got)
	}
	if fs.TotalInjections() != 1 {
		t.Fatalf("total injections = %d, want 1", fs.TotalInjections())
	}
}

func TestFaultStorageCommitFault(t *testing.T) {
	fs := mustFaultStorage(t, NewMemoryStorage(),
		FaultRule{Op: OpCommit, Mode: ModeFail, Rank: -1, Count: 1})
	image, err := EncodeBuffer(sampleCheckpoint(2))
	if err != nil {
		t.Fatalf("EncodeBuffer: %v", err)
	}
	commit, abort, err := fs.StageImage(2, image)
	if err != nil {
		t.Fatalf("StageImage: %v", err)
	}
	if err := commit(); err == nil {
		t.Fatal("first commit must fail")
	} else if !strings.Contains(err.Error(), "injected commit fault") {
		t.Fatalf("unexpected error: %v", err)
	}
	abort()

	image2, err := EncodeBuffer(sampleCheckpoint(2))
	if err != nil {
		t.Fatalf("EncodeBuffer: %v", err)
	}
	commit2, _, err := fs.StageImage(2, image2)
	if err != nil {
		t.Fatalf("StageImage: %v", err)
	}
	if err := commit2(); err != nil {
		t.Fatalf("second commit (rule exhausted): %v", err)
	}
	if _, ok, err := fs.Load(2); err != nil || !ok {
		t.Fatalf("load after committed wave: ok=%v err=%v", ok, err)
	}
}

func TestFaultStorageCorruptDetectedOnLoad(t *testing.T) {
	fs := mustFaultStorage(t, NewMemoryStorage(),
		FaultRule{Op: OpStage, Mode: ModeCorrupt, Rank: 0, Count: 1})
	image, err := EncodeBuffer(sampleCheckpoint(0))
	if err != nil {
		t.Fatalf("EncodeBuffer: %v", err)
	}
	commit, _, err := fs.StageImage(0, image)
	if err != nil {
		t.Fatalf("StageImage: corruption must not fail the stage: %v", err)
	}
	if err := commit(); err != nil {
		t.Fatalf("commit: corruption must not fail the publish: %v", err)
	}
	// The damage surfaces only when the image is decoded.
	if _, _, err := fs.Load(0); err == nil {
		t.Fatal("load of a corrupted image must fail to decode")
	}
	if fs.TotalInjections() != 1 {
		t.Fatalf("total injections = %d, want 1", fs.TotalInjections())
	}
}

func TestFaultStorageStallBlocksUntilRelease(t *testing.T) {
	release := make(chan struct{})
	fs := mustFaultStorage(t, NewMemoryStorage(),
		FaultRule{Op: OpStage, Mode: ModeStall, Rank: -1, Count: 1, Block: release})
	done := make(chan error, 1)
	go func() { done <- fs.Save(sampleCheckpoint(1)) }()
	select {
	case <-done:
		t.Fatal("stalled save returned before release")
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("save after release: %v", err)
	}
}

func TestFaultStorageLoadFault(t *testing.T) {
	inner := NewMemoryStorage()
	if err := inner.Save(sampleCheckpoint(1)); err != nil {
		t.Fatalf("seed save: %v", err)
	}
	fs := mustFaultStorage(t, inner, FaultRule{Op: OpLoad, Mode: ModeFail, Rank: 1, Count: 1})
	if _, _, err := fs.Load(1); err == nil {
		t.Fatal("first load must fail")
	}
	if _, ok, err := fs.Load(1); err != nil || !ok {
		t.Fatalf("second load: ok=%v err=%v", ok, err)
	}
	ranks, err := fs.Ranks()
	if err != nil || len(ranks) != 1 || ranks[0] != 1 {
		t.Fatalf("Ranks = %v, %v", ranks, err)
	}
}
