package sim

import "testing"

// relay forwards a hop counter around a ring.
type relay struct{ next NodeID }

func (r relay) OnMessage(ctx *Context, _ NodeID, msg Msg) {
	if msg.Kind != kindToken || msg.A == 0 {
		return
	}
	ctx.Send(r.next, token(msg.A-1))
}

// BenchmarkMessageThroughput measures raw simulator delivery rate on a
// 64-node ring carrying long-lived token chains.
func BenchmarkMessageThroughput(b *testing.B) {
	const ring = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := NewNetwork(1)
		for j := 0; j < ring; j++ {
			if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 8; j++ {
			n.Inject(NodeID(j*7%ring), token(1000))
		}
		if err := n.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageThroughputWarm is BenchmarkMessageThroughput on one
// long-lived network reset per iteration: the steady state of the online
// layer's warm-started capacity probes. Messages are inline Msg values in
// retained ring buffers, so a warm episode performs zero allocations.
func BenchmarkMessageThroughputWarm(b *testing.B) {
	const ring = 64
	n := NewNetwork(1)
	for j := 0; j < ring; j++ {
		if err := n.Add(NodeID(j), relay{next: NodeID((j + 1) % ring)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Reset(1)
		for j := 0; j < 8; j++ {
			n.Inject(NodeID(j*7%ring), token(1000))
		}
		if err := n.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}
