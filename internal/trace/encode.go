package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"hawkset/internal/sites"
)

// Binary trace formats, both behind the same magic + version header:
//
//	magic   "HWKT"            4 bytes
//	version uvarint           1 or 2
//
// Format v1 (the original):
//
//	nsites  uvarint           number of site frames (excluding reserved 0)
//	sites   nsites × frame    frame = file string, line uvarint, func string
//	nevents uvarint
//	events  nevents × event   event = kind byte, tid uvarint, then
//	                          kind-dependent fields, all uvarint
//	strings are uvarint length + bytes
//
// Format v2 (delta-encoded, block-framed; layout in codec_v2.go) shares the
// site-table encoding and replaces the event section with CRC'd blocks.
//
// Decode reads both versions; Encode defaults to v2 (EncodeWith selects).
// The format exists so traces can be captured once (cmd/hawkset -trace-out)
// and analyzed repeatedly or inspected with cmd/tracedump, mirroring the
// decoupling between HawkSet's instrumentation and analysis stages. A
// decoder accepts input only up to the declared end: trailing bytes after
// the last event are an error, never silently ignored, so truncated-then-
// concatenated or padded files cannot masquerade as well-formed traces.

const (
	magic    = "HWKT"
	version1 = 1
	version2 = 2

	// DefaultVersion is the format Encode writes.
	DefaultVersion = version2
)

// Options selects the trace encoding.
type Options struct {
	// Version is the format version: 1 (one varint per field) or 2
	// (delta-encoded blocks). 0 means DefaultVersion.
	Version int
	// Compress flate-compresses v2 blocks (ignored for v1).
	Compress bool
}

func (o Options) version() int {
	if o.Version == 0 {
		return DefaultVersion
	}
	return o.Version
}

var (
	errBadMagic      = errors.New("trace: bad magic (not a HawkSet trace file)")
	errMissingFrame0 = errors.New("trace: site table missing reserved frame 0")
)

// Decoding limits. Counts in the header are untrusted varints: a corrupt or
// malicious file can claim 2^64 sites or events, so no count is trusted for
// allocation — preallocation is capped and the real length is whatever the
// stream actually delivers before EOF.
const (
	// maxSites bounds the site table. Each decoded site consumes at least
	// three input bytes, so this also bounds header-driven looping.
	maxSites = 1 << 24
	// maxEventPrealloc caps the event-slice preallocation; larger traces
	// grow by append, paying only for events actually present.
	maxEventPrealloc = 1 << 20
	// minEventBytes is the smallest encoding decodeEvent accepts: a fence's
	// kind byte plus one-byte TID and site uvarints. A count of n events
	// needs at least n*minEventBytes bytes of input.
	minEventBytes = 3
	// maxString bounds a single decoded string (file or function name).
	maxString = 1 << 20
)

// Encode writes the trace in the default binary format (v2).
func Encode(w io.Writer, t *Trace) error {
	return EncodeWith(w, t, Options{})
}

// EncodeWith writes the trace in the selected format version.
func EncodeWith(w io.Writer, t *Trace, o Options) error {
	switch o.version() {
	case version1:
		return encodeV1(w, t)
	case version2:
		enc, err := NewEncoder(w, t.Sites, o)
		if err != nil {
			return err
		}
		for _, e := range t.Events {
			if err := enc.Write(e); err != nil {
				return err
			}
		}
		return enc.Close()
	default:
		return fmt.Errorf("trace: unsupported encode version %d", o.Version)
	}
}

func encodeV1(w io.Writer, t *Trace) error {
	frames := t.Sites.Frames()
	if len(frames) == 0 {
		// A well-formed site table always carries the reserved frame 0; the
		// header stores len(frames)-1, which would underflow to 2⁶⁴−1 here
		// and produce a file every decoder rejects as corrupt.
		return errMissingFrame0
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	putUvarint(bw, version1)
	putUvarint(bw, uint64(len(frames)-1))
	for _, f := range frames[1:] {
		putString(bw, f.File)
		putUvarint(bw, uint64(f.Line))
		putString(bw, f.Func)
	}
	putUvarint(bw, uint64(len(t.Events)))
	var scratch []byte
	for _, e := range t.Events {
		var err error
		scratch, err = appendEventV1(scratch[:0], e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendEventV1 appends the v1 encoding of one event: kind byte, tid, site,
// then the kind-dependent fields, all uvarint. Shared by the v1 file format
// and the v1 segment codec (both append-style, no intermediate buffer).
func appendEventV1(dst []byte, e Event) ([]byte, error) {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, uint64(e.TID))
	dst = binary.AppendUvarint(dst, uint64(e.Site))
	switch e.Kind {
	case KStore, KLoad, KNTStore, KAlloc:
		dst = binary.AppendUvarint(dst, e.Addr)
		dst = binary.AppendUvarint(dst, uint64(e.Size))
	case KFlush:
		dst = binary.AppendUvarint(dst, e.Addr)
	case KFence:
	case KLockAcq, KLockRel:
		dst = binary.AppendUvarint(dst, e.Lock)
	case KThreadCreate, KThreadJoin:
		dst = binary.AppendUvarint(dst, uint64(e.Kid))
	default:
		return nil, fmt.Errorf("trace: cannot encode event kind %d", e.Kind)
	}
	return dst, nil
}

// Decode reads a binary trace in either format version into memory,
// requiring the input to end exactly after the last declared event. It is
// the retaining form of the streaming Decoder, for callers that need the
// whole []Event; analysis should stream through NewDecoder instead.
func Decode(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Sites: d.Sites()}
	for {
		e, err := d.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", len(t.Events), err)
		}
		t.Events = append(t.Events, e)
	}
}

// Decoder streams a binary trace: the header and site table are read by
// NewDecoder, then Next yields one event at a time, so a trace can be fed
// straight into an online analysis (hawkset.Stream) without materializing
// the event slice. Next returns io.EOF only after verifying the input ends
// where the format says it ends (declared count for v1, terminator for v2).
type Decoder struct {
	br      *bufio.Reader
	version int
	sites   *sites.Table

	// v1 state.
	declared  uint64 // v1: events promised by the header (0 for v2)
	seen      uint64
	siteLimit sites.ID

	// v2 state.
	blocks *blockReader

	done bool
}

// NewDecoder reads the header and site table. The input is untrusted; every
// count is bounded before allocation.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, err
	}
	if string(mg[:]) != magic {
		return nil, errBadMagic
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	d := &Decoder{br: br, version: int(v)}
	var compress bool
	switch v {
	case version1:
	case version2:
		flags, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if flags&^flagFlate != 0 {
			return nil, fmt.Errorf("trace: unknown v2 header flags %#02x", flags)
		}
		compress = flags&flagFlate != 0
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nsites, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nsites > maxSites {
		return nil, fmt.Errorf("trace: implausible site count %d (corrupt header?)", nsites)
	}
	d.sites = sites.NewTable()
	for i := uint64(0); i < nsites; i++ {
		f, err := decodeFrame(br)
		if err != nil {
			return nil, fmt.Errorf("trace: site %d: %w", i+1, err)
		}
		d.sites.Append(f)
	}
	// IDs are validated against the decoded table: nsites frames plus the
	// reserved ID 0 — analyses index the site table without re-checking.
	d.siteLimit = sites.ID(nsites + 1)
	switch v {
	case version1:
		if d.declared, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
	case version2:
		d.blocks = newBlockReader(br, compress, d.siteLimit)
	}
	return d, nil
}

// Version reports the decoded format version (1 or 2).
func (d *Decoder) Version() int { return d.version }

// Sites returns the decoded site table (complete after NewDecoder).
func (d *Decoder) Sites() *sites.Table { return d.sites }

// Next returns the next event, or io.EOF after the last one. Before
// reporting io.EOF the decoder requires the underlying input to be
// exhausted: a trace followed by trailing bytes — a truncated file
// concatenated with another, corruption past the declared count — is a
// decode error, not a silent success.
func (d *Decoder) Next() (Event, error) {
	if d.done {
		return Event{}, io.EOF
	}
	switch d.version {
	case version1:
		if d.seen == d.declared {
			if err := d.requireEOF(); err != nil {
				return Event{}, err
			}
			return Event{}, io.EOF
		}
		e, err := decodeEvent(d.br, d.siteLimit)
		if err != nil {
			return Event{}, err
		}
		d.seen++
		return e, nil
	default: // version2
		e, err := d.blocks.next()
		if err == io.EOF {
			if err := d.requireEOF(); err != nil {
				return Event{}, err
			}
			return Event{}, io.EOF
		}
		return e, err
	}
}

// requireEOF verifies no input remains, then marks the decoder finished.
func (d *Decoder) requireEOF() error {
	if _, err := d.br.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return errors.New("trace: trailing data after final event")
	}
	d.done = true
	return nil
}

// decodeFrame parses one site frame (file, line, func).
func decodeFrame(br *bufio.Reader) (sites.Frame, error) {
	file, err := getString(br)
	if err != nil {
		return sites.Frame{}, err
	}
	line, err := binary.ReadUvarint(br)
	if err != nil {
		return sites.Frame{}, err
	}
	if line > math.MaxInt32 {
		return sites.Frame{}, fmt.Errorf("line %d out of range", line)
	}
	fn, err := getString(br)
	if err != nil {
		return sites.Frame{}, err
	}
	return sites.Frame{File: file, Line: int(line), Func: fn}, nil
}

func decodeEvent(br *bufio.Reader, siteLimit sites.ID) (Event, error) {
	var e Event
	k, err := br.ReadByte()
	if err != nil {
		return e, err
	}
	e.Kind = Kind(k)
	tid, err := binary.ReadUvarint(br)
	if err != nil {
		return e, err
	}
	if tid > math.MaxInt32 {
		return e, fmt.Errorf("thread ID %d out of range", tid)
	}
	e.TID = int32(tid)
	site, err := binary.ReadUvarint(br)
	if err != nil {
		return e, err
	}
	if site >= uint64(siteLimit) {
		return e, fmt.Errorf("site ID %d out of range (table has %d frames)", site, siteLimit)
	}
	e.Site = sites.ID(site)
	switch e.Kind {
	case KStore, KLoad, KNTStore, KAlloc:
		if e.Addr, err = binary.ReadUvarint(br); err != nil {
			return e, err
		}
		sz, err := binary.ReadUvarint(br)
		if err != nil {
			return e, err
		}
		if sz > math.MaxUint32 {
			return e, fmt.Errorf("access size %d out of range", sz)
		}
		e.Size = uint32(sz)
	case KFlush:
		if e.Addr, err = binary.ReadUvarint(br); err != nil {
			return e, err
		}
	case KFence:
	case KLockAcq, KLockRel:
		if e.Lock, err = binary.ReadUvarint(br); err != nil {
			return e, err
		}
	case KThreadCreate, KThreadJoin:
		kid, err := binary.ReadUvarint(br)
		if err != nil {
			return e, err
		}
		if kid > math.MaxInt32 {
			return e, fmt.Errorf("thread ID %d out of range", kid)
		}
		e.Kid = int32(kid)
	default:
		return e, fmt.Errorf("unknown kind %d", k)
	}
	return e, nil
}

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func putString(bw *bufio.Writer, s string) {
	putUvarint(bw, uint64(len(s)))
	bw.WriteString(s) //nolint:errcheck // bufio defers errors to Flush
}

func getString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("trace: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
