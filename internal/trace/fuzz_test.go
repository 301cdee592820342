package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the trace decoder. Decode consumes
// files from outside the process (cmd/hawkset -trace-in), so it must treat
// every byte as hostile: no panic, no unbounded allocation, and any
// successfully-decoded trace must be internally consistent (site IDs inside
// the decoded table) and re-encode to a byte stream that decodes to the
// same trace. Seeds cover both format versions: v1's count-prefixed layout
// and v2's block framing (tag bytes, deltas, CRC, flate).
func FuzzDecode(f *testing.F) {
	seeds := map[string][]byte{}
	for name, o := range map[string]Options{
		"v1":       {Version: 1},
		"v2":       {Version: 2},
		"v2-flate": {Version: 2, Compress: true},
	} {
		var buf bytes.Buffer
		if err := EncodeWith(&buf, sampleTrace(), o); err != nil {
			f.Fatal(err)
		}
		seeds[name] = buf.Bytes()
	}

	f.Add([]byte{})
	f.Add([]byte("NOPE...."))
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])                          // truncated mid-stream
		f.Add(append(append([]byte(nil), raw...), 0x42)) // trailing garbage
		// Bit-flipped variants: corruption that keeps the magic intact and
		// lands inside the version/flags bytes, counts, block headers, tag
		// bytes and CRCs.
		for _, bit := range []int{4*8 + 1, 5 * 8, 6 * 8, 8*8 + 3, (len(raw) / 2) * 8, (len(raw) - 2) * 8} {
			fl := append([]byte(nil), raw...)
			fl[bit/8] ^= 1 << (bit % 8)
			f.Add(fl)
		}
	}
	// A v1 header claiming 2^40 events with no data behind it: the decoder
	// must fail at EOF, not allocate for the claim.
	var bomb bytes.Buffer
	bomb.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	bomb.Write(tmp[:binary.PutUvarint(tmp[:], version1)])
	bomb.Write(tmp[:binary.PutUvarint(tmp[:], 0)])     // nsites
	bomb.Write(tmp[:binary.PutUvarint(tmp[:], 1<<40)]) // nevents
	f.Add(bomb.Bytes())
	// A v2 block header claiming a huge raw size: rejected by the block cap,
	// never allocated.
	var blockBomb bytes.Buffer
	blockBomb.WriteString(magic)
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], version2)])
	blockBomb.WriteByte(0)                                  // flags
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], 0)])     // nsites
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], 1)])     // block nevents
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], 1<<40)]) // rawLen
	f.Add(blockBomb.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected: all the decoder promises for bad input
		}
		frames := len(tr.Sites.Frames())
		for i, e := range tr.Events {
			if int(e.Site) >= frames || e.Site < 0 {
				t.Fatalf("event %d: site %d outside decoded table (%d frames)", i, e.Site, frames)
			}
			if e.TID < 0 || e.Kid < 0 {
				t.Fatalf("event %d: negative thread ID (%d/%d)", i, e.TID, e.Kid)
			}
		}
		for _, o := range []Options{{Version: 1}, {Version: 2}, {Version: 2, Compress: true}} {
			var buf bytes.Buffer
			if err := EncodeWith(&buf, tr, o); err != nil {
				t.Fatalf("re-encoding accepted trace (v%d): %v", o.Version, err)
			}
			again, err := Decode(&buf)
			if err != nil {
				t.Fatalf("re-decoding re-encoded trace (v%d): %v", o.Version, err)
			}
			if !reflect.DeepEqual(again.Events, tr.Events) {
				t.Fatalf("re-encode round trip changed events (v%d)", o.Version)
			}
		}
	})
}
