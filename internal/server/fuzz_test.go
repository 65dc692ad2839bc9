package server_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/server"
)

// frame appends one encoded frame to buf.
func frame(buf *bytes.Buffer, typ byte, payload []byte) {
	if err := server.WriteFrame(buf, typ, payload); err != nil {
		panic(err)
	}
}

// helloPayload builds a valid Hello so mutated streams can get past the
// handshake and reach the per-frame decoders.
func helloPayload() []byte {
	var e server.Enc
	e.U32(server.ProtocolVersion)
	e.Str("fuzz")
	return e.Bytes()
}

// FuzzServerFrames throws arbitrary byte streams at a live server
// connection. The invariant under test is the wire contract: a hostile
// stream produces Error frames or a closed connection — never a hung
// connection, and never a process crash (a panic that escaped the
// per-connection recover would fail the fuzz run).
func FuzzServerFrames(f *testing.F) {
	_, addr := startServer(f, testDB(), server.Options{})

	// Seeds: a valid pipelined session, then progressively broken ones.
	var ok bytes.Buffer
	frame(&ok, server.FrameHello, helloPayload())
	var e server.Enc
	e.U32(1) // stmtID
	e.U8(server.WireLangSQL)
	e.Str("q")
	e.Str("select R.A from R")
	frame(&ok, server.FramePrepare, e.Bytes())
	e = server.Enc{}
	e.U32(7) // cursorID
	e.U32(1) // stmtID
	e.U32(0) // argc
	frame(&ok, server.FrameBind, e.Bytes())
	e = server.Enc{}
	e.U32(7)
	frame(&ok, server.FrameExecute, e.Bytes())
	e = server.Enc{}
	e.U32(7)
	e.U32(100)
	frame(&ok, server.FrameFetch, e.Bytes())
	f.Add(ok.Bytes())

	// Two cursors fetched a row at a time, so each suspends mid-stream
	// in its own runner, then one closed and the other rebound while
	// suspended, then both run again; the torn copy ends the session with
	// both suspended.
	var runners bytes.Buffer
	frame(&runners, server.FrameHello, helloPayload())
	e = server.Enc{}
	e.U32(1)
	e.U8(server.WireLangSQL)
	e.Str("q")
	e.Str("select R.A from R")
	frame(&runners, server.FramePrepare, e.Bytes())
	open := func(cur uint32) {
		e = server.Enc{}
		e.U32(cur)
		e.U32(1)
		e.U32(0)
		frame(&runners, server.FrameBind, e.Bytes())
		e = server.Enc{}
		e.U32(cur)
		frame(&runners, server.FrameExecute, e.Bytes())
	}
	fetch := func(cur, maxRows uint32) {
		e = server.Enc{}
		e.U32(cur)
		e.U32(maxRows)
		frame(&runners, server.FrameFetch, e.Bytes())
	}
	open(7)
	open(8)
	fetch(7, 1)
	fetch(8, 1)
	torn := len(runners.Bytes())
	fetch(7, 1)
	e = server.Enc{}
	e.U8(1)
	e.U32(7)
	frame(&runners, server.FrameClose, e.Bytes())
	fetch(8, 1)
	open(8) // rebinds the suspended cursor
	fetch(8, 1)
	open(7)
	fetch(7, 0)
	fetch(8, 0)
	f.Add(runners.Bytes())
	f.Add(runners.Bytes()[:torn])

	// Fetches that ask for 0 rows, so the byte bound ends each batch: a
	// 1 000-row result in one batch, then a 360 000-byte one whose cursor
	// is closed after its first batch, rebound, and rebound again between
	// its two batches.
	var wide bytes.Buffer
	frame(&wide, server.FrameHello, helloPayload())
	prepare := func(stmt uint32, src string) {
		e = server.Enc{}
		e.U32(stmt)
		e.U8(server.WireLangSQL)
		e.Str("q")
		e.Str(src)
		frame(&wide, server.FramePrepare, e.Bytes())
	}
	bind := func(cur, stmt uint32) {
		e = server.Enc{}
		e.U32(cur)
		e.U32(stmt)
		e.U32(0)
		frame(&wide, server.FrameBind, e.Bytes())
		e = server.Enc{}
		e.U32(cur)
		frame(&wide, server.FrameExecute, e.Bytes())
	}
	fetchAll := func(cur uint32) {
		e = server.Enc{}
		e.U32(cur)
		e.U32(0)
		frame(&wide, server.FrameFetch, e.Bytes())
	}
	prepare(1, "select Big1.X from Big1")
	bind(7, 1)
	fetchAll(7)
	prepare(2, "select Big1.X, Big2.Y from Big1, Big2 where Big2.Y < 20")
	bind(8, 2)
	fetchAll(8)
	e = server.Enc{}
	e.U8(1)
	e.U32(8)
	frame(&wide, server.FrameClose, e.Bytes())
	bind(8, 2)
	fetchAll(8)
	bind(8, 2) // rebinds the cursor suspended after its first batch
	fetchAll(8)
	fetchAll(8)
	f.Add(wide.Bytes())

	var tx bytes.Buffer
	frame(&tx, server.FrameHello, helloPayload())
	frame(&tx, server.FrameBegin, nil)
	e = server.Enc{}
	e.U32(2)
	e.U8(server.WireLangSQL)
	e.Str("s")
	e.Str("insert into R values (9, 90)")
	frame(&tx, server.FramePrepare, e.Bytes())
	e = server.Enc{}
	e.U32(2)
	e.U32(0)
	frame(&tx, server.FrameExec, e.Bytes())
	frame(&tx, server.FrameCommit, nil)
	f.Add(tx.Bytes())

	var bad bytes.Buffer
	frame(&bad, server.FrameHello, helloPayload())
	frame(&bad, server.FrameBind, []byte{0xff, 0xff}) // truncated payload
	f.Add(bad.Bytes())

	f.Add([]byte{})
	f.Add([]byte{server.FrameHello, 0xff, 0xff, 0xff, 0xff})      // oversized length prefix
	f.Add([]byte{0x42, 0x00, 0x00, 0x00, 0x03, 0x01})             // unknown type, short payload
	f.Add(bytes.Repeat([]byte{0xa5}, 512))                        // pure noise
	f.Add(append(ok.Bytes()[:len(ok.Bytes())/2], 0x00, 0x00))     // valid prefix, torn mid-frame
	f.Add(append([]byte{server.FrameAnalyze}, ok.Bytes()[1:]...)) // type confusion on a valid stream

	f.Fuzz(func(t *testing.T, stream []byte) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		nc.Write(stream) // a write error just means the server closed first
		// Half-close so a server mid-frame sees EOF instead of waiting for
		// the rest of a truncated payload.
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		buf := make([]byte, 4096)
		for {
			if _, err := nc.Read(buf); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("server neither answered nor closed after %d-byte stream", len(stream))
				}
				return
			}
		}
	})
}
