package ingest

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"saber/internal/fault"
)

// slowSink delays every Insert, modelling a sink blocked on engine
// admission, and checks the credit bound: the sender may never be more
// than window+frame tuples ahead of what the sink has consumed.
type slowSink struct {
	collectSink
	delay    time.Duration
	sent     *atomic.Int64 // tuples the client has finished sending
	consumed atomic.Int64  // tuples this sink has accepted
	maxLag   atomic.Int64
}

func (s *slowSink) Insert(data []byte) {
	time.Sleep(s.delay)
	if lag := s.sent.Load() - s.consumed.Load(); lag > s.maxLag.Load() {
		s.maxLag.Store(lag)
	}
	s.consumed.Add(int64(len(data) / 8))
	s.collectSink.Insert(data)
}

// TestCreditsPaceSenderToSink: with a 64-tuple window over a slow sink,
// the sender must block on grants (CreditWaits > 0) and its lead over
// the sink stays within window + one frame. Every byte still arrives in
// order.
func TestCreditsPaceSenderToSink(t *testing.T) {
	var sent atomic.Int64
	sink := &slowSink{delay: 200 * time.Microsecond, sent: &sent}
	srv, err := Listen("127.0.0.1:0", sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableCredits(64)
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	c, err := DialCredits(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Window() != 64 {
		t.Fatalf("greeted window %d, want 64", c.Window())
	}

	const frameTuples = 16
	var want []byte
	for i := 0; i < 200; i++ {
		frame := make([]byte, frameTuples*8)
		for j := range frame {
			frame[j] = byte(i*31 + j)
		}
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
		sent.Add(frameTuples)
		want = append(want, frame...)
	}
	waitBytes(t, srv, int64(len(want)))
	srv.Close()

	if !bytes.Equal(sink.bytes(), want) {
		t.Fatal("sink content mismatch under credit pacing")
	}
	if c.CreditWaits() == 0 {
		t.Fatal("sender never waited on credits despite a slow sink")
	}
	// sent is stamped after Send returns, so the observed lag is a lower
	// bound on the true in-flight count — a violation here is definitive.
	if lag := sink.maxLag.Load(); lag > 64+frameTuples {
		t.Fatalf("sender ran %d tuples ahead of the sink, credit bound is %d", lag, 64+frameTuples)
	}
	st := srv.Stats()
	if st.CreditGrants == 0 || st.CreditTuples != int64(len(want)/8) {
		t.Fatalf("grants=%d granted tuples=%d, want all %d tuples granted back",
			st.CreditGrants, st.CreditTuples, len(want)/8)
	}
}

// TestCreditsJumboFrameOverdraft: a frame far larger than the window
// must still go through (overdraft), and the balance recovers from the
// grant stream afterwards.
func TestCreditsJumboFrameOverdraft(t *testing.T) {
	sink := &collectSink{}
	srv, err := Listen("127.0.0.1:0", sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableCredits(8) // tiny window
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	c, err := DialCredits(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	jumbo := stream(100) // 100 tuples against an 8-tuple window
	if err := c.Send(jumbo); err != nil {
		t.Fatal(err)
	}
	// A second jumbo forces the client to wait out the first one's grants.
	if err := c.Send(jumbo); err != nil {
		t.Fatal(err)
	}
	waitBytes(t, srv, int64(2*len(jumbo)))
	srv.Close()
	if got := sink.bytes(); len(got) != 2*len(jumbo) {
		t.Fatalf("sink has %d bytes, want %d", len(got), 2*len(jumbo))
	}
	if c.CreditWaits() == 0 {
		t.Fatal("second jumbo frame should have waited for grants")
	}
}

// TestCreditsResumeReconnectInterop drives both protocol extensions at
// once under seeded mid-frame faults: the greeting carries cursor then
// window, each redial resets the balance, replayed frames are granted
// like fresh ones, and the sink still sees every tuple exactly once.
func TestCreditsResumeReconnectInterop(t *testing.T) {
	sink := &collectSink{}
	srv, err := Listen("127.0.0.1:0", sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableResume(0)
	srv.EnableCredits(32)
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	inj := fault.New(42)
	inj.Arm(fault.IngestDrop, fault.Spec{Rate: 0.3})
	rc, err := DialReconnect(srv.Addr().String(), ReconnectConfig{
		Seed:      42,
		Resume:    true,
		Credits:   true,
		TupleSize: 8,
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
		Fault:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 200; i++ {
		frame := make([]byte, 8*(1+i%4))
		for j := range frame {
			frame[j] = byte(i*7 + j)
		}
		if err := rc.Send(frame); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	rc.Close()
	if rc.Reconnects() == 0 || inj.TotalInjections() == 0 {
		t.Fatalf("no faults exercised: reconnects=%d injections=%d", rc.Reconnects(), inj.TotalInjections())
	}
	waitBytes(t, srv, int64(len(want)))
	srv.Close()
	if !bytes.Equal(sink.bytes(), want) {
		t.Fatalf("sink has %d bytes, want %d exactly once", len(sink.bytes()), len(want))
	}
	if rc.Next() != int64(len(want)/8) {
		t.Fatalf("client next %d, want %d", rc.Next(), len(want)/8)
	}
	if srv.Stats().CreditGrants == 0 {
		t.Fatal("server granted nothing across the whole run")
	}
}

// gatedSink blocks its second Insert until gate is closed, holding the
// server mid-stream while later frames wait unread in its socket.
type gatedSink struct {
	collectSink
	gate    chan struct{}
	inserts atomic.Int64
}

func (s *gatedSink) Insert(data []byte) {
	if s.inserts.Add(1) == 2 {
		<-s.gate
	}
	s.collectSink.Insert(data)
}

// TestCloseAfterRedialDeliversEverything closes a resume+credit client
// right after it redialed past an injected mid-frame fault, while the
// server is stalled with frames still unread and a credit grant sits
// unread at the client. Close must not reset the connection (a reset
// drops the server's unread frames): the server receives exactly every
// byte, and only the faulted connection ends in an error.
func TestCloseAfterRedialDeliversEverything(t *testing.T) {
	sink := &gatedSink{gate: make(chan struct{})}
	srv, err := Listen("127.0.0.1:0", sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableResume(0)
	srv.EnableCredits(32) // one grant per 8 tuples consumed
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	inj := fault.New(7)
	inj.Arm(fault.IngestDrop, fault.Spec{Rate: 1, Limit: 1}) // the first frame's first attempt
	rc, err := DialReconnect(srv.Addr().String(), ReconnectConfig{
		Seed:      7,
		Resume:    true,
		Credits:   true,
		TupleSize: 8,
		BaseDelay: 100 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
		Fault:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four 8-tuple frames fit the 32-tuple window, so no Send waits.
	want := stream(32)
	for off := 0; off < len(want); off += 64 {
		if err := rc.Send(want[off : off+64]); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Reconnects() != 1 || inj.TotalInjections() != 1 {
		t.Fatalf("reconnects=%d injections=%d, want one faulted redial", rc.Reconnects(), inj.TotalInjections())
	}
	// The first frame is sunk and granted; the second holds the sink.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().CreditGrants == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never granted the first frame")
		}
		time.Sleep(time.Millisecond)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(sink.gate) })
	if err := rc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := srv.BytesIn(); got != int64(len(want)) {
		t.Fatalf("server received %d bytes, want %d", got, len(want))
	}
	if !bytes.Equal(sink.bytes(), want) {
		t.Fatalf("sink has %d bytes, want %d exactly once", len(sink.bytes()), len(want))
	}
	srv.Close()
	if st := srv.Stats(); st.ConnErrors != 1 {
		t.Fatalf("%d connections ended in an error, want only the faulted one", st.ConnErrors)
	}
}

// TestCreditsGreetingOrder pins the wire layout when both extensions are
// on: 8-byte cursor first, 8-byte window second.
func TestCreditsGreetingOrder(t *testing.T) {
	sink := &collectSink{}
	srv, err := Listen("127.0.0.1:0", sink, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableResume(17)
	srv.EnableCredits(96)
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	c, cursor, err := DialResumeCredits(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cursor != 17 || c.Window() != 96 {
		t.Fatalf("greeting (cursor=%d window=%d), want (17, 96)", cursor, c.Window())
	}
}
