package trace

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hawkset/internal/sites"
)

// TestSegmentRoundTrip: a sequence of segments carrying incremental site
// frames and event batches reconstructs the original trace exactly.
func TestSegmentRoundTrip(t *testing.T) {
	tr := sampleTrace()
	frames := tr.Sites.Frames()

	// Split the trace into three segments; frames ride with the first.
	n := len(tr.Events)
	cuts := []int{0, n / 3, 2 * n / 3, n}
	var segs []*Segment
	for i := 0; i+1 < len(cuts); i++ {
		seg := &Segment{Seq: uint64(i + 1), Events: tr.Events[cuts[i]:cuts[i+1]]}
		if i == 0 {
			seg.Frames = frames[1:] // reserved frame 0 never travels
		}
		segs = append(segs, seg)
	}

	got := New()
	for _, seg := range segs {
		enc, err := EncodeSegment(nil, seg)
		if err != nil {
			t.Fatalf("encode seq %d: %v", seg.Seq, err)
		}
		dec, err := DecodeSegment(enc, got.Sites.Len())
		if err != nil {
			t.Fatalf("decode seq %d: %v", seg.Seq, err)
		}
		if dec.Seq != seg.Seq {
			t.Fatalf("seq: got %d want %d", dec.Seq, seg.Seq)
		}
		for _, f := range dec.Frames {
			got.Sites.Append(f)
		}
		got.Events = append(got.Events, dec.Events...)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("events differ after segment round trip")
	}
	if !reflect.DeepEqual(got.Sites.Frames(), frames) {
		t.Fatalf("site tables differ after segment round trip")
	}
}

// TestSegmentRejects: structural violations error out instead of panicking
// or silently mis-decoding.
func TestSegmentRejects(t *testing.T) {
	seg := &Segment{
		Seq:    7,
		Frames: []sites.Frame{{File: "a.go", Line: 1, Func: "f"}},
		Events: []Event{{Kind: KStore, TID: 1, Addr: 64, Size: 8, Site: 1}},
	}
	enc, err := EncodeSegment(nil, seg)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeSegment(enc[:cut], 1); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := DecodeSegment(append(append([]byte{}, enc...), 0xEE), 1); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("site-out-of-range", func(t *testing.T) {
		bad := &Segment{Seq: 1, Events: []Event{{Kind: KLoad, TID: 1, Addr: 0, Size: 8, Site: 9}}}
		raw, err := EncodeSegment(nil, bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSegment(raw, 1); err == nil {
			t.Fatal("event referencing unseen site accepted")
		}
		// The same segment is fine for a receiver whose table covers ID 9.
		if _, err := DecodeSegment(raw, 10); err != nil {
			t.Fatalf("valid site rejected: %v", err)
		}
	})
	t.Run("event-count-bomb", func(t *testing.T) {
		// seq=1, nsites=0, nevents=2^40 with no events behind it.
		bomb := []byte{1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
		if _, err := DecodeSegment(bomb, 1); err == nil {
			t.Fatal("event-count bomb accepted")
		}
	})
	t.Run("event-count-prealloc", func(t *testing.T) {
		// seq=1, nsites=0, nevents=2^21: under maxSegmentEvents, but six
		// bytes cannot hold it. The count must be rejected before it sizes
		// the event slice (2^20 events, 40 MiB).
		short := []byte{1, 0, 0x80, 0x80, 0x80, 0x01}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSegment(short, 1)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "implausible event count") {
			t.Fatalf("err = %v, want an implausible event count", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("decoding a 6-byte segment allocated %d bytes", alloc)
		}
	})
}
