package grant

import (
	"strings"
	"testing"
)

func TestBucketBurstExactlyAtCapacity(t *testing.T) {
	// A fresh bucket admits exactly its burst capacity back to back —
	// the boundary request at capacity is admitted, capacity+1 is not.
	b := newBucket(100, 8)
	now := int64(1_000_000)
	for i := 0; i < 8; i++ {
		ok, _ := b.take(now)
		if !ok {
			t.Fatalf("request %d of burst 8 not admitted", i+1)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatalf("request 9 admitted past burst capacity 8")
	}
	if wait == 0 {
		t.Fatalf("rejected request carries no RETRY-AFTER hint")
	}
	// One token refills after 1/rate seconds = 10ms.
	if wait > 11 {
		t.Fatalf("RETRY-AFTER %dms, want ~10ms at rate 100/s", wait)
	}
	ok, _ = b.take(now + 10_000_000)
	if !ok {
		t.Fatalf("request not admitted after the hinted refill interval")
	}
}

func TestBucketRefillCapsAtBurst(t *testing.T) {
	b := newBucket(1000, 4)
	if ok, _ := b.take(0); !ok {
		t.Fatal("fresh bucket rejected")
	}
	// A long quiet period must not accumulate more than burst tokens.
	now := int64(3_600_000_000_000) // one hour
	admitted := 0
	for i := 0; i < 100; i++ {
		if ok, _ := b.take(now); ok {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d after idle hour, want burst cap 4", admitted)
	}
}

func TestRetryAfterMonotoneAndBounded(t *testing.T) {
	if got := retryAfterMS(1, 0); got != ^uint32(0) {
		t.Fatalf("zero rate hint = %d, want max", got)
	}
	if got := retryAfterMS(0.0001, 1000); got != 1 {
		t.Fatalf("tiny deficit hint = %d, want floor 1ms", got)
	}
	small := retryAfterMS(10, 100)
	large := retryAfterMS(100, 100)
	if small >= large {
		t.Fatalf("hint not monotone in backlog: %d >= %d", small, large)
	}
	if got := retryAfterMS(1e12, 1e-6); got != ^uint32(0) {
		t.Fatalf("huge deficit hint = %d, want saturated max", got)
	}
}

func TestParsePolicies(t *testing.T) {
	def := Policy{Class: 1, Rate: 1000, Burst: 32, Queue: 256}
	pols, err := ParsePolicies("gold:class=0,rate=50000,burst=128,queue=1024; blocked:rate=0 ;bronze:class=2", def)
	if err != nil {
		t.Fatal(err)
	}
	if got := pols["gold"]; got != (Policy{Class: 0, Rate: 50000, Burst: 128, Queue: 1024}) {
		t.Fatalf("gold = %+v", got)
	}
	if got := pols["blocked"]; got.Rate != 0 || got.Class != 1 {
		t.Fatalf("blocked = %+v, want rate 0 inheriting class 1", got)
	}
	if got := pols["bronze"]; got.Class != 2 || got.Rate != 1000 {
		t.Fatalf("bronze = %+v, want class 2 with inherited rate", got)
	}
}

func TestParsePoliciesErrors(t *testing.T) {
	def := Policy{Rate: 100, Burst: 8, Queue: 64}
	for _, spec := range []string{
		"noseparator",       // missing colon
		"t:rate",            // not key=value
		"t:speed=1",         // unknown key
		"t:rate=abc",        // bad number
		"t:rate=1,burst=0",  // burst < 1 with rate > 0
		"t:queue=0",         // queue < 1
		"t:class=300",       // class out of range
		"a:rate=1;a:rate=2", // duplicate tenant
		"t:rate=-5",         // negative rate
	} {
		if _, err := ParsePolicies(spec, def); err == nil {
			t.Errorf("spec %q: no error", spec)
		}
	}
	if pols, err := ParsePolicies("  ", def); err != nil || len(pols) != 0 {
		t.Fatalf("blank spec: %v, %v", pols, err)
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{Rate: 0, Burst: 0, Queue: 1}).validate(); err != nil {
		t.Fatalf("zero-rate policy (administratively blocked tenant) must be valid: %v", err)
	}
	if err := (Policy{Rate: 1, Burst: 1, Queue: 1}).validate(); err != nil {
		t.Fatalf("minimal policy invalid: %v", err)
	}
	if err := (Policy{Rate: -1, Burst: 1, Queue: 1}).validate(); err == nil ||
		!strings.Contains(err.Error(), "rate") {
		t.Fatalf("negative rate not rejected: %v", err)
	}
}
