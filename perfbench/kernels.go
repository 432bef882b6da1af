package main

import (
	"fmt"
	"sync/atomic"

	"kaas"
)

// Modeled cost of `mci n=200`: eight FLOPs per sample plus the mci
// kernel's transfer sizes, so one call is dominated by the P100's launch
// overhead (about 2.1 ms modeled, about 1 µs wall at scale 2000).
const (
	lightWork     = 200 * 8
	lightBytesIn  = 64
	lightBytesOut = 16
)

// affineKernel returns y = 2x+1 for the request's own x, so a reply
// delivered to the wrong caller (a mux or batch demux mix-up) fails the
// check. work sets its modeled device cost.
type affineKernel struct {
	name    string
	work    float64
	corrupt *corruption
}

// corruption makes kernels return wrong outputs, once armed, for every
// call whose x is a multiple of every. Tests use it to prove that the
// benchmark's output check fails the run.
type corruption struct {
	armed atomic.Bool
	every int64
}

func (c *corruption) hits(x float64) bool {
	return c != nil && c.armed.Load() && int64(x)%c.every == 0
}

func (k *affineKernel) Name() string          { return k.name }
func (k *affineKernel) Kind() kaas.DeviceKind { return kaas.GPU }
func (k *affineKernel) Cost(*kaas.Request) (kaas.Cost, error) {
	return kaas.Cost{Work: k.work, BytesIn: lightBytesIn, BytesOut: lightBytesOut, DeviceMemory: 1 << 20}, nil
}

func (k *affineKernel) Execute(req *kaas.Request) (*kaas.Response, error) {
	x, ok := req.Params["x"]
	if !ok {
		return nil, fmt.Errorf("%s: missing x", k.name)
	}
	y := 2*x + 1
	if k.corrupt.hits(x) {
		y++
	}
	return &kaas.Response{Values: map[string]float64{"x": x, "y": y}}, nil
}

// echoKernel returns a copy of its payload; the benchmark checks the
// copy's checksum against the sent payload's.
type echoKernel struct {
	corrupt *corruption
}

func (k *echoKernel) Name() string          { return "echo" }
func (k *echoKernel) Kind() kaas.DeviceKind { return kaas.GPU }
func (k *echoKernel) Cost(req *kaas.Request) (kaas.Cost, error) {
	n := int64(len(req.Data))
	return kaas.Cost{Work: lightWork, BytesIn: n, BytesOut: n, DeviceMemory: n + 1<<20}, nil
}

func (k *echoKernel) Execute(req *kaas.Request) (*kaas.Response, error) {
	out := make([]byte, len(req.Data))
	copy(out, req.Data)
	x := req.Params["x"]
	if k.corrupt.hits(x) && len(out) > 0 {
		out[len(out)-1] ^= 0xff
	}
	return &kaas.Response{Values: map[string]float64{"x": x}, Data: out}, nil
}
