package client

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"kaas/internal/kernels"
	"kaas/internal/wire"
)

// TestMuxConcurrentInvocations drives many concurrent invocations
// through a two-connection mux pool: every call must succeed, the
// client must stay on the multiplexed protocol, and the server must see
// only the shared connections (not one per request).
func TestMuxConcurrentInvocations(t *testing.T) {
	_, ln := startFaultyServer(t, nil)
	c := Dial(ln.Addr().String(), WithMux(2))
	defer c.Close()

	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const workers = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			res, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": seed}, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Values["checksum"] <= 0 {
				errs <- errors.New("zero checksum")
			}
		}(float64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent invoke: %v", err)
	}

	if c.muxFallback.Load() {
		t.Error("client fell back to the legacy protocol against a mux-capable server")
	}
	if n := ln.Accepted(); n > 2 {
		t.Errorf("server accepted %d connections, want at most the 2 shared ones", n)
	}
}

// TestMuxCancelLeavesSiblingStreams cancels one in-flight stream on a
// single shared connection: the CANCEL frame must stop the server-side
// kernel, while sibling streams on the same connection keep working and
// the connection itself stays healthy.
func TestMuxCancelLeavesSiblingStreams(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := Dial(ln.Addr().String(), WithMux(1))
	defer c.Close()
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slowErr := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ctx, "slow", nil, nil)
		slowErr <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return srv.Stats().InFlight >= 1 }, "slow invocation in flight")

	// A sibling stream on the same connection completes while the slow
	// stream occupies it.
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": 1}, nil); err != nil {
		t.Fatalf("sibling Invoke while slow stream in flight: %v", err)
	}

	cancel()
	if err := <-slowErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invoke err = %v, want context.Canceled", err)
	}
	// The CANCEL frame must reach the server and stop the kernel well
	// before the ~5 s it would otherwise burn.
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "server-side cancellation")

	// The shared connection survived the per-stream cancel.
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": 2}, nil); err != nil {
		t.Fatalf("Invoke after cancel: %v", err)
	}
	if n := ln.Accepted(); n != 1 {
		t.Errorf("server accepted %d connections, want exactly the 1 shared one", n)
	}
}

// TestMuxNonFiniteParamFailsOnlyItsCall sends a NaN parameter while a
// sibling stream is in flight on the same shared connection: the bad
// call must fail on its own with an encode error, and the connection
// must stay healthy for the in-flight sibling and for later calls.
func TestMuxNonFiniteParamFailsOnlyItsCall(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := Dial(ln.Addr().String(), WithMux(1))
	defer c.Close()
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slowErr := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ctx, "slow", nil, nil)
		slowErr <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return srv.Stats().InFlight >= 1 }, "slow invocation in flight")

	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		_, err := c.Invoke("matmul", kernels.Params{"n": bad}, nil)
		if err == nil || !strings.Contains(err.Error(), "not a finite number") {
			t.Fatalf("Invoke with n=%v: err = %v, want a per-call encode error", bad, err)
		}
	}
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": 1}, nil); err != nil {
		t.Fatalf("sibling Invoke after the rejected call: %v", err)
	}
	// The slow stream was on the connection the whole time: it ends by
	// its own cancellation, not by a connection failure.
	cancel()
	if err := <-slowErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight sibling err = %v, want context.Canceled", err)
	}
	if n := ln.Accepted(); n != 1 {
		t.Errorf("server accepted %d connections, want exactly the 1 shared one", n)
	}
}

// TestMuxOutOfOrderReplies checks the demultiplexer routes replies by
// StreamID, not arrival order: a scripted server answers the second
// request first.
func TestMuxOutOfOrderReplies(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer raw.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			conn, err := raw.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			hello, err := wire.Read(conn)
			if err != nil || hello.Type != wire.MsgHello {
				return errors.New("expected hello")
			}
			if err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgHelloAck, Header: wire.Header{
				MuxVersion: wire.VersionMux, MaxStreams: 4,
			}}); err != nil {
				return err
			}
			// Collect both invokes before answering, then reply in
			// reverse order, echoing each request's "x" param so the
			// client can detect a misrouted reply.
			var reqs []*wire.Message
			for len(reqs) < 2 {
				msg, err := wire.Read(conn)
				if err != nil {
					return err
				}
				if msg.Type == wire.MsgInvoke {
					reqs = append(reqs, msg)
				}
			}
			for i := len(reqs) - 1; i >= 0; i-- {
				req := reqs[i]
				err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgResult, Header: wire.Header{
					Kernel:   req.Header.Kernel,
					Values:   map[string]float64{"x": req.Header.Params["x"]},
					StreamID: req.Header.StreamID,
				}})
				if err != nil {
					return err
				}
			}
			// Hold the connection open until the client is done.
			wire.Read(conn)
			return nil
		}()
	}()

	c := Dial(raw.Addr().String(), WithMux(1))
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, x := range []float64{1, 2} {
		wg.Add(1)
		go func(x float64) {
			defer wg.Done()
			res, err := c.Invoke("echo", kernels.Params{"x": x}, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Values["x"] != x {
				errs <- errors.New("reply routed to the wrong stream")
			}
		}(x)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("out-of-order invoke: %v", err)
	}
	c.Close()
	if err := <-serverErr; err != nil {
		t.Errorf("scripted server: %v", err)
	}
}

// TestMuxFallbackToLegacyServer points a mux-enabled client at a server
// that predates multiplexing (it rejects the hello with an error): the
// client must fall back to the one-request-per-connection protocol and
// still complete calls.
func TestMuxFallbackToLegacyServer(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer raw.Close()

	// A minimal legacy server: hellos are unknown frames, invokes echo.
	go func() {
		for {
			conn, err := raw.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					msg, err := wire.Read(conn)
					if err != nil {
						return
					}
					var reply *wire.Message
					switch msg.Type {
					case wire.MsgHello:
						reply = &wire.Message{Type: wire.MsgError, Header: wire.Header{
							Error: "unexpected message type hello",
						}}
					case wire.MsgInvoke:
						reply = &wire.Message{Type: wire.MsgResult, Header: wire.Header{
							Kernel: msg.Header.Kernel,
							Values: map[string]float64{"x": msg.Header.Params["x"]},
						}}
					default:
						reply = &wire.Message{Type: wire.MsgError, Header: wire.Header{Error: "unsupported"}}
					}
					if err := wire.Write(conn, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	c := Dial(raw.Addr().String(), WithMux(2))
	defer c.Close()

	res, err := c.Invoke("echo", kernels.Params{"x": 7}, nil)
	if err != nil {
		t.Fatalf("Invoke via fallback: %v", err)
	}
	if res.Values["x"] != 7 {
		t.Errorf("x = %v, want 7", res.Values["x"])
	}
	if !c.muxFallback.Load() {
		t.Error("client did not record the legacy fallback")
	}

	// Subsequent calls skip the handshake entirely and keep working.
	if _, err := c.Invoke("echo", kernels.Params{"x": 8}, nil); err != nil {
		t.Fatalf("second Invoke via fallback: %v", err)
	}
}
