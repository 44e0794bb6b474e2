package faults

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

func TestInjectorDeterministicSchedule(t *testing.T) {
	cfg := Config{ErrorRate: 0.2, StallRate: 0.1, DropRate: 0.1, CorruptRate: 0.1}
	a := MustInjector(42, cfg)
	b := MustInjector(42, cfg)
	var seqA, seqB []Kind
	for i := 0; i < 500; i++ {
		seqA = append(seqA, a.Next())
		seqB = append(seqB, b.Next())
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, seqA[i], seqB[i])
		}
	}
	if a.Injected() == 0 {
		t.Error("500 draws at 50% total rate injected nothing")
	}
	if a.Count(None)+a.Injected() != 500 {
		t.Errorf("counts do not sum: none=%d injected=%d", a.Count(None), a.Injected())
	}
}

func TestInjectorDisabled(t *testing.T) {
	in := MustInjector(1, Config{ErrorRate: 1})
	in.SetEnabled(false)
	for i := 0; i < 20; i++ {
		if k := in.Next(); k != None {
			t.Fatalf("disabled injector drew %v", k)
		}
	}
	in.SetEnabled(true)
	if k := in.Next(); k != Error {
		t.Fatalf("re-enabled injector drew %v, want error", k)
	}
}

func TestInjectorRejectsBadRates(t *testing.T) {
	if _, err := NewInjector(1, Config{ErrorRate: 0.8, DropRate: 0.5}); err == nil {
		t.Error("rates summing past 1 accepted")
	}
	if _, err := NewInjector(1, Config{ErrorRate: -0.1}); err == nil {
		t.Error("negative rate accepted")
	}
}

// pipeConns returns both ends of an in-memory connection.
func pipeConns(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return c1, c2
}

func TestConnCorruptionCaughtByCRC(t *testing.T) {
	client, server := pipeConns(t)
	// Serialize a clean frame, then send the header untouched and the
	// payload through the flaky conn: the flipped byte always lands in
	// the payload, so the CRC check must reject the frame.
	var buf bytes.Buffer
	payload := []byte("payload bytes")
	if err := wire.Write(&buf, wire.Message{Type: wire.TypeAck, StreamID: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	headerLen := len(data) - len(payload)
	flaky := WrapConn(client, MustInjector(7, Config{CorruptRate: 1}), nil)
	go func() {
		if _, err := client.Write(data[:headerLen]); err != nil {
			return
		}
		_, _ = flaky.Write(data[headerLen:])
	}()
	if _, err := wire.Read(server, wire.DefaultMaxPayload); !errors.Is(err, wire.ErrBadFrame) {
		t.Errorf("corrupted frame read err = %v, want ErrBadFrame", err)
	}
}

func TestConnDropClosesUnderlying(t *testing.T) {
	client, server := pipeConns(t)
	flaky := WrapConn(client, MustInjector(7, Config{DropRate: 1}), nil)
	if _, err := flaky.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped write err = %v", err)
	}
	// The underlying conn is closed: the peer sees EOF and further writes
	// fail without injection in the loop.
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := server.Read(buf)
		done <- err
	}()
	if err := <-done; err == nil {
		t.Error("peer read succeeded after drop")
	}
}

func TestGateKillsAndRevives(t *testing.T) {
	client, _ := pipeConns(t)
	gate := &Gate{}
	flaky := WrapConn(client, MustInjector(7, Config{}), gate)
	gate.Kill()
	if _, err := flaky.Write([]byte("x")); !errors.Is(err, ErrKilled) {
		t.Fatalf("gated write err = %v, want ErrKilled", err)
	}
	if !gate.Dead() {
		t.Error("gate not dead after Kill")
	}
	gate.Revive()
	if gate.Dead() {
		t.Error("gate dead after Revive")
	}
}

type stubEnhancer struct{ calls int }

func (s *stubEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]wire.AnchorOutcome, error) {
	outs := make([]wire.AnchorOutcome, len(jobs))
	for i, job := range jobs {
		s.calls++
		outs[i].Res = wire.AnchorResult{Packet: job.Packet, Encoded: []byte("0123456789")}
	}
	return outs, nil
}

func TestFlakyEnhancerFaults(t *testing.T) {
	inner := &stubEnhancer{}
	gate := &Gate{}
	fe := &FlakyEnhancer{Inner: inner, Inj: MustInjector(5, Config{ErrorRate: 1}), Gate: gate}
	if out := enhanceOne(fe, 1, []wire.AnchorJob{{}}); !errors.Is(out.Err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", out.Err)
	}
	if inner.calls != 0 {
		t.Error("inner called despite injected error")
	}

	fe = &FlakyEnhancer{Inner: inner, Inj: MustInjector(5, Config{CorruptRate: 1}), Gate: gate}
	out := enhanceOne(fe, 1, []wire.AnchorJob{{Packet: 4}})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Res.Encoded) > 3 {
		t.Errorf("corrupted anchor kept %d bytes", len(out.Res.Encoded))
	}

	gate.Kill()
	if _, err := fe.EnhanceBatch(1, []wire.AnchorJob{{}}); !errors.Is(err, ErrKilled) {
		t.Fatalf("gated enhance err = %v, want ErrKilled", err)
	}
	if err := fe.Ping(); !errors.Is(err, ErrKilled) {
		t.Fatalf("gated ping err = %v, want ErrKilled", err)
	}
	gate.Revive()
	if err := fe.Ping(); err != nil {
		t.Fatalf("revived ping err = %v", err)
	}
	fe.Inj.SetEnabled(false)
	if out := enhanceOne(fe, 2, []wire.AnchorJob{{Packet: 9}}); out.Err != nil || out.Res.Packet != 9 {
		t.Fatalf("passthrough enhance = %+v", out)
	}
}
