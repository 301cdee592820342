package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hawkset/internal/sites"
)

// Segment is one batch of a streamed trace: the events produced since the
// previous segment plus the site frames interned since the previous segment.
// A sequence of segments numbered 1..n reconstructs exactly the trace that
// produced it: frames are appended positionally (the stream and its receiver
// assign identical site IDs), events are replayed in order.
//
// Segments are the unit of transfer and of durability in the pmcheckd
// ingestion daemon: the same encoded bytes travel over the wire, are
// appended to the crash-safe segment log, and are replayed on recovery.
//
// Two segment encodings exist, distinguished by the first byte:
//
// v1 (all integers uvarint, strings length-prefixed like the trace format):
//
//	seq     uvarint            1-based segment sequence number (never 0)
//	nsites  uvarint            new site frames in this segment
//	sites   nsites × frame     file string, line uvarint, func string
//	nevents uvarint
//	events  nevents × event    same event encoding as the v1 trace format
//
// v2 (the block codec of codec_v2.go; EncodeSegment's default):
//
//	marker  2 bytes            0x00 'S' — 0x00 cannot start a v1 segment,
//	                           whose seq is 1-based
//	version byte               2
//	flags   byte               bit0 = blocks are flate-compressed
//	seq     uvarint
//	nsites  uvarint
//	sites   nsites × frame
//	blocks  + terminator       exactly as the v2 file format
//
// DecodeSegment dispatches on the marker, so daemons ingest old and new
// clients — and replay pre-v2 segment logs — without configuration.
type Segment struct {
	Seq    uint64
	Frames []sites.Frame
	Events []Event
}

// maxSegmentEvents bounds a single segment's event count; a decoded count
// above it is rejected before any allocation. Generous: a segment is a
// network batch, not a whole trace.
const maxSegmentEvents = 1 << 22

// maxSegmentFrames bounds a single segment's new-frame count, symmetric
// with maxSites but scaled to a batch: a corrupt header claiming millions
// of frames is rejected outright instead of driving the frame-decode loop
// (and its per-frame allocations) until the input runs dry.
const maxSegmentFrames = 1 << 20

// Segment v2 marker: a first byte no v1 segment can produce (sequence
// numbers are 1-based) followed by a discriminator.
const (
	segMarker0 = 0x00
	segMarker1 = 'S'
)

// EncodeSegment appends the segment's binary encoding (v2, uncompressed) to
// buf and returns the extended slice.
func EncodeSegment(buf []byte, seg *Segment) ([]byte, error) {
	return EncodeSegmentWith(buf, seg, Options{})
}

// EncodeSegmentV1 appends the legacy v1 encoding (kept for the golden
// fixtures and cross-version tests; DecodeSegment still accepts it).
func EncodeSegmentV1(buf []byte, seg *Segment) ([]byte, error) {
	return EncodeSegmentWith(buf, seg, Options{Version: version1})
}

// EncodeSegmentWith appends the segment's encoding in the selected format.
// Both paths are direct append-style: no intermediate buffer, no copy of
// the caller's prefix.
func EncodeSegmentWith(buf []byte, seg *Segment, o Options) ([]byte, error) {
	switch o.version() {
	case version1:
		return appendSegmentV1(buf, seg)
	case version2:
		return appendSegmentV2(buf, seg, o.Compress)
	default:
		return nil, fmt.Errorf("trace: unsupported segment version %d", o.Version)
	}
}

func appendSegmentV1(buf []byte, seg *Segment) ([]byte, error) {
	if seg.Seq == 0 {
		// Sequence numbers are 1-based; 0 is the v2 marker byte.
		return nil, errors.New("trace: segment sequence numbers are 1-based")
	}
	buf = binary.AppendUvarint(buf, seg.Seq)
	buf = appendFrames(buf, seg.Frames)
	buf = binary.AppendUvarint(buf, uint64(len(seg.Events)))
	var err error
	for _, e := range seg.Events {
		if buf, err = appendEventV1(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendSegmentV2(buf []byte, seg *Segment, compress bool) ([]byte, error) {
	flags := byte(0)
	if compress {
		flags |= flagFlate
	}
	buf = append(buf, segMarker0, segMarker1, version2, flags)
	buf = binary.AppendUvarint(buf, seg.Seq)
	buf = appendFrames(buf, seg.Frames)
	sw := &sliceWriter{b: buf}
	bw := newBlockWriter(sw, compress)
	for _, e := range seg.Events {
		if err := bw.write(e); err != nil {
			return nil, err
		}
	}
	if err := bw.finish(); err != nil {
		return nil, err
	}
	return sw.b, nil
}

func appendFrames(buf []byte, frames []sites.Frame) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(frames)))
	for _, f := range frames {
		buf = appendLenString(buf, f.File)
		buf = binary.AppendUvarint(buf, uint64(f.Line))
		buf = appendLenString(buf, f.Func)
	}
	return buf
}

func appendLenString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// sliceWriter adapts append-style encoding to the io.Writer the block codec
// speaks; every Write lands directly on the caller's slice.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// PeekSegmentSeq extracts the sequence number from an encoded segment of
// either version without decoding the rest — the segment store uses it to
// verify log-record ordering before replay.
func PeekSegmentSeq(data []byte) (uint64, error) {
	if len(data) == 0 {
		return 0, errors.New("trace: empty segment")
	}
	if data[0] == segMarker0 {
		if len(data) < 5 || data[1] != segMarker1 {
			return 0, errors.New("trace: bad segment marker")
		}
		if data[2] != version2 {
			return 0, fmt.Errorf("trace: unsupported segment version %d", data[2])
		}
		seq, n := binary.Uvarint(data[4:])
		if n <= 0 {
			return 0, errors.New("trace: truncated segment sequence number")
		}
		return seq, nil
	}
	seq, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, errors.New("trace: truncated segment sequence number")
	}
	return seq, nil
}

// DecodeSegment parses one segment of either version. baseSites is the
// receiver's current site table length (including the reserved frame 0);
// event site IDs are validated against baseSites plus this segment's new
// frames, so a segment accepted here can be applied without further checks.
// Input is untrusted: counts are bounded, allocation is capped, and any
// structural violation — including trailing bytes — is an error, never a
// panic.
func DecodeSegment(data []byte, baseSites int) (*Segment, error) {
	if len(data) > 0 && data[0] == segMarker0 {
		return decodeSegmentV2(data, baseSites)
	}
	return decodeSegmentV1(data, baseSites)
}

func decodeSegmentV1(data []byte, baseSites int) (*Segment, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	seg := &Segment{}
	var err error
	if seg.Seq, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("segment: seq: %w", err)
	}
	if seg.Frames, err = decodeSegmentFrames(br, baseSites); err != nil {
		return nil, err
	}
	nevents, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("segment: event count: %w", err)
	}
	if nevents > maxSegmentEvents || nevents > uint64(len(data))/minEventBytes {
		return nil, fmt.Errorf("segment: implausible event count %d for %d bytes", nevents, len(data))
	}
	prealloc := nevents
	if prealloc > maxEventPrealloc {
		prealloc = maxEventPrealloc
	}
	seg.Events = make([]Event, 0, prealloc)
	siteLimit := sites.ID(baseSites + len(seg.Frames))
	for i := uint64(0); i < nevents; i++ {
		e, err := decodeEvent(br, siteLimit)
		if err != nil {
			return nil, fmt.Errorf("segment: event %d: %w", i, err)
		}
		seg.Events = append(seg.Events, e)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("segment: trailing data after %d events", nevents)
	}
	return seg, nil
}

func decodeSegmentV2(data []byte, baseSites int) (*Segment, error) {
	if len(data) < 4 || data[1] != segMarker1 {
		return nil, errors.New("segment: bad v2 marker")
	}
	if data[2] != version2 {
		return nil, fmt.Errorf("segment: unsupported version %d", data[2])
	}
	flags := data[3]
	if flags&^flagFlate != 0 {
		return nil, fmt.Errorf("segment: unknown flags %#02x", flags)
	}
	br := bufio.NewReader(bytes.NewReader(data[4:]))
	seg := &Segment{}
	var err error
	if seg.Seq, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("segment: seq: %w", err)
	}
	if seg.Frames, err = decodeSegmentFrames(br, baseSites); err != nil {
		return nil, err
	}
	siteLimit := sites.ID(baseSites + len(seg.Frames))
	blocks := newBlockReader(br, flags&flagFlate != 0, siteLimit)
	for {
		e, err := blocks.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("segment: event %d: %w", len(seg.Events), err)
		}
		if len(seg.Events) >= maxSegmentEvents {
			return nil, fmt.Errorf("segment: implausible event count > %d", maxSegmentEvents)
		}
		seg.Events = append(seg.Events, e)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("segment: trailing data after %d events", len(seg.Events))
	}
	return seg, nil
}

// decodeSegmentFrames parses the incremental frame list shared by both
// segment versions, bounding the claimed count before any allocation.
func decodeSegmentFrames(br *bufio.Reader, baseSites int) ([]sites.Frame, error) {
	nsites, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("segment: site count: %w", err)
	}
	if nsites > maxSegmentFrames || uint64(baseSites)+nsites > maxSites {
		return nil, fmt.Errorf("segment: implausible site count %d (base %d)", nsites, baseSites)
	}
	var frames []sites.Frame
	for i := uint64(0); i < nsites; i++ {
		f, err := decodeFrame(br)
		if err != nil {
			return nil, fmt.Errorf("segment: site %d: %w", i, err)
		}
		frames = append(frames, f)
	}
	return frames, nil
}
