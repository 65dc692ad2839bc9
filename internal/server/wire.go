// Package server is the network front end over engine.DB: a TCP server
// speaking a small length-prefixed wire protocol, with per-connection
// sessions that own prepared-statement handles and stream query results
// in fetch-sized batches.
//
// Framing: every frame is
//
//	[1 byte type][4 bytes big-endian payload length][payload]
//
// Client → server frames: Hello, Prepare, Bind, Execute, Fetch, Close,
// Exec (DML/DDL), Begin, Commit, Rollback.
// Server → client frames: the matching *OK responses, Rows batches, and
// Error frames carrying a structured code plus message. A session may
// pipeline requests (e.g. Prepare+Bind+Execute+Fetch in one write); the
// server processes frames in order and answers in order, so responses
// match requests positionally without round-trip stalls.
//
// Every decoder in this file is strictly bounds-checked and returns
// errors: the payload is the untrusted surface, and a hostile byte
// stream must produce an Error frame (or a closed connection), never a
// panic — see the hostile-input tests.
//
// Both ends keep one buffer per connection for the frames they read
// (ReadFrameInto) and the server one for the Rows payloads it encodes,
// so a Fetch costs per batch rather than per row; docs/INVARIANTS.md,
// "A fetched row is not copied", states what may point into them.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/value"
)

// Frame types. Client-originated types are low, server-originated have
// the high bit set.
const (
	FrameHello    byte = 0x01 // u32 version, string client name
	FramePrepare  byte = 0x02 // u32 stmtID, u8 lang, string pred, string src
	FrameBind     byte = 0x03 // u32 cursorID, u32 stmtID, u32 argc, values
	FrameExecute  byte = 0x04 // u32 cursorID
	FrameFetch    byte = 0x05 // u32 cursorID, u32 maxRows
	FrameClose    byte = 0x06 // u8 kind (0 stmt, 1 cursor), u32 id
	FrameExec     byte = 0x07 // u32 stmtID, u32 argc, values
	FrameBegin    byte = 0x08 // (empty)
	FrameCommit   byte = 0x09 // (empty)
	FrameRollback byte = 0x0A // (empty)
	FrameAnalyze  byte = 0x0B // u32 stmtID, u32 argc, values

	FrameHelloOK    byte = 0x81 // u32 version, string server banner
	FramePrepareOK  byte = 0x82 // u32 stmtID, u8 kind, u32 nparams, u32 ncols, strings
	FrameBindOK     byte = 0x83 // u32 cursorID
	FrameExecuteOK  byte = 0x84 // u32 cursorID
	FrameRows       byte = 0x85 // u32 cursorID, u8 done, u32 ncols, u32 nrows, rows
	FrameCloseOK    byte = 0x86 // u8 kind, u32 id
	FrameError      byte = 0x87 // string code, string message
	FrameExecOK     byte = 0x88 // u64 rowsAffected, u64 generation
	FrameBeginOK    byte = 0x89 // u64 baseGeneration
	FrameCommitOK   byte = 0x8A // u64 commitGeneration
	FrameRollbackOK byte = 0x8B // (empty)
	FrameAnalyzeOK  byte = 0x8C // string renderedPlan
)

// ProtocolVersion is the wire protocol revision negotiated by Hello.
// Revision 2 added the write path: Exec/Begin/Commit/Rollback frames, a
// statement-kind byte in PrepareOK, and the CONFLICT/WRONG_KIND/TX
// error codes. Revision 3 added EXPLAIN ANALYZE: the Analyze frame runs
// a prepared query with operator tracing enabled and answers AnalyzeOK
// carrying the rendered executed plan.
const ProtocolVersion = 3

// Wire language bytes carried by Prepare frames — the single source the
// server's dispatch and the client package both alias.
const (
	WireLangSQL     byte = 0
	WireLangARC     byte = 1
	WireLangDatalog byte = 2
)

// MaxFrame bounds a frame payload. A length prefix beyond it is a
// protocol error — the cheap defense against a hostile client asking the
// server to allocate gigabytes.
const MaxFrame = 1 << 20

// Structured error codes carried by Error frames.
const (
	CodeProtocol      = "PROTOCOL"       // malformed frame; the connection closes
	CodeParse         = "PARSE"          // Prepare failed (syntax/validation/plan)
	CodeBind          = "BIND"           // Bind arguments rejected
	CodeExecute       = "EXECUTE"        // Execute failed
	CodeFetch         = "FETCH"          // Fetch failed (execution error mid-stream)
	CodeUnknownStmt   = "UNKNOWN_STMT"   // stmt id not prepared in this session
	CodeUnknownCursor = "UNKNOWN_CURSOR" // cursor id not open in this session
	CodeShutdown      = "SHUTDOWN"       // server is draining
	CodeInternal      = "INTERNAL"       // recovered panic (engine.PanicError)
	CodeConflict      = "CONFLICT"       // first-committer-wins write conflict
	CodeWrongKind     = "WRONG_KIND"     // statement kind vs operation mismatch
	CodeTx            = "TX"             // transaction-state misuse (e.g. COMMIT with no BEGIN)
)

// Wire statement-kind bytes carried by PrepareOK (the client-visible
// projection of engine.StmtKind).
const (
	WireKindQuery    byte = 0
	WireKindDML      byte = 1
	WireKindDDL      byte = 2
	WireKindBegin    byte = 3
	WireKindCommit   byte = 4
	WireKindRollback byte = 5
)

// WireError is a structured error received over (or destined for) the
// wire.
type WireError struct {
	Code    string
	Message string
}

func (e *WireError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// errProtocol builds a connection-fatal protocol error.
func errProtocol(format string, args ...any) *WireError {
	return &WireError{Code: CodeProtocol, Message: fmt.Sprintf(format, args...)}
}

// ReadFrame reads one length-prefixed frame into a fresh payload. It
// returns io.EOF only on a clean end-of-stream boundary; a truncated
// header or payload surfaces as ErrUnexpectedEOF, and an oversized
// length as a protocol error before any payload allocation.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var fresh []byte
	return ReadFrameInto(r, &fresh)
}

// ReadFrameInto is ReadFrame for a connection that reads every frame
// into one buffer: the header and payload land in *buf's storage, which
// grows when a frame needs more and is kept in *buf for the next call
// unless it grew past retainBytes. The payload is valid only until the
// next ReadFrameInto on the same buf. That is safe because every decoder
// here copies out what it keeps (Dec.Str), so a frame decoded before the
// next read leaves nothing pointing into the buffer.
func ReadFrameInto(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	if cap(*buf) < 5 {
		*buf = make([]byte, 5)
	}
	hdr := (*buf)[:5]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, errProtocol("frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	if int(n) <= cap(*buf) {
		payload = (*buf)[:n]
	} else {
		payload = make([]byte, n)
		if n <= retainBytes {
			*buf = payload
		}
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return errProtocol("outgoing frame of %d bytes exceeds the %d-byte limit", len(payload), MaxFrame)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Enc is an append-style payload encoder, exported so the client
// package (and tests) build frames with the same code the server uses.
type Enc struct{ b []byte }

func (e *Enc) U8(v byte)    { e.b = append(e.b, v) }
func (e *Enc) U32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// val encodes one value: a kind byte plus the kind's payload.
func (e *Enc) Val(v value.Value) {
	switch v.Kind() {
	case value.KindNull:
		e.U8(0)
	case value.KindInt:
		e.U8(1)
		e.U64(uint64(v.AsInt()))
	case value.KindFloat:
		e.U8(2)
		e.U64(math.Float64bits(v.AsFloat()))
	case value.KindString:
		e.U8(3)
		e.Str(v.AsString())
	case value.KindBool:
		e.U8(4)
		if v.AsBool() {
			e.U8(1)
		} else {
			e.U8(0)
		}
	}
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// Dec is a bounds-checked payload decoder: every read either succeeds or
// records a protocol error, and reads after an error return zero values.
type Dec struct {
	b   []byte
	pos int
	err error
}

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = errProtocol(format, args...)
	}
}

func (d *Dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.pos < n {
		d.fail("truncated payload: need %d bytes at offset %d of %d", n, d.pos, len(d.b))
		return false
	}
	return true
}

func (d *Dec) U8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

func (d *Dec) Str() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if uint64(n) > uint64(len(d.b)-d.pos) {
		d.fail("string of %d bytes overruns payload", n)
		return ""
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// Val decodes one value: Vals for a single one.
func (d *Dec) Val() value.Value {
	var v [1]value.Value
	d.Vals(v[:])
	return v[0]
}

// Vals decodes len(dst) values into dst, in one loop over the payload
// with one bounds check per value, and fails as Val would at the first
// value that does not decode; the values after it are left as they were.
func (d *Dec) Vals(dst []value.Value) {
	if d.err != nil {
		return
	}
	b, pos := d.b, d.pos
	for i := range dst {
		if pos >= len(b) {
			d.pos = pos
			d.need(1)
			return
		}
		k := b[pos]
		pos++
		if int(k) >= len(valSizes) {
			d.pos = pos
			d.fail("unknown value kind 0x%02x", k)
			return
		}
		if n := valSizes[k]; len(b)-pos < n {
			d.pos = pos
			d.need(n)
			return
		}
		switch k {
		case 0:
			dst[i] = value.Null()
		case 1:
			dst[i] = value.Int(int64(binary.BigEndian.Uint64(b[pos:])))
			pos += 8
		case 2:
			dst[i] = value.Float(math.Float64frombits(binary.BigEndian.Uint64(b[pos:])))
			pos += 8
		case 3:
			n := binary.BigEndian.Uint32(b[pos:])
			pos += 4
			if uint64(n) > uint64(len(b)-pos) {
				d.pos = pos
				d.fail("string of %d bytes overruns payload", n)
				return
			}
			dst[i] = value.Str(string(b[pos : pos+int(n)]))
			pos += int(n)
		case 4:
			dst[i] = value.Bool(b[pos] != 0)
			pos++
		}
	}
	d.pos = pos
}

// valSizes[k] is how many bytes follow the kind byte of a value of kind k
// before anything of variable length: none for NULL, an int's or a
// float's eight, a string's length, a bool's byte.
var valSizes = [...]int{0, 8, 8, 4, 1}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Err reports the first decode error hit so far.
func (d *Dec) Err() error { return d.err }

// Done asserts the payload was fully consumed — trailing bytes mean the
// client and server disagree about the frame layout.
func (d *Dec) Done() error {
	if d.err == nil && d.pos != len(d.b) {
		d.fail("%d trailing bytes after payload", len(d.b)-d.pos)
	}
	return d.err
}
