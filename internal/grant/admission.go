package grant

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Policy is one tenant's admission contract: a QoS class (lower is
// served first, mapped onto core.QoS packet priorities when the switch
// runs with PriorityClasses > 1), a token-bucket rate limit, and a
// bounded ingress queue.
type Policy struct {
	// Class is the tenant's strict-priority QoS class, 0 = highest.
	Class int `json:"class"`
	// Rate is the sustained admission rate in requests per second.
	// Rate 0 admits nothing: the tenant is administratively blocked and
	// every request is rejected (not retried — retrying is futile).
	Rate float64 `json:"rate"`
	// Burst is the token-bucket capacity in requests: the largest batch
	// admitted at once after a sufficiently long quiet period.
	Burst float64 `json:"burst"`
	// Queue is the ingress queue bound in requests. A full queue pushes
	// back with RETRY-AFTER verdicts instead of buffering without bound.
	Queue int `json:"queue"`
}

func (p Policy) validate() error {
	if p.Class < 0 || p.Class > 255 {
		return fmt.Errorf("grant: class %d out of range [0,255]", p.Class)
	}
	if p.Rate < 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
		return fmt.Errorf("grant: rate %v must be a finite non-negative requests/second", p.Rate)
	}
	if p.Rate > 0 && p.Burst < 1 {
		return fmt.Errorf("grant: burst %v must be >= 1 request when rate > 0", p.Burst)
	}
	if p.Queue < 1 {
		return fmt.Errorf("grant: queue bound %d must be >= 1 request", p.Queue)
	}
	return nil
}

// bucket is a token bucket over a nanosecond clock. The clock is passed
// in (telemetry.NowNS in production, a fake in tests) so admission
// decisions are testable without sleeping. Not safe for concurrent use;
// the service guards each tenant's bucket with the service mutex.
type bucket struct {
	rate   float64 // tokens per second
	cap    float64 // burst capacity
	tokens float64
	lastNS int64
}

func newBucket(rate, burst float64) bucket {
	// A fresh bucket is full: a tenant's first burst up to capacity is
	// admitted without warm-up.
	return bucket{rate: rate, cap: burst, tokens: burst}
}

// take refills the bucket to nowNS and spends one token. On failure it
// returns the RETRY-AFTER hint in milliseconds: the time until one token
// will be available, rounded up, floored at 1ms so a hint is never zero.
func (b *bucket) take(nowNS int64) (ok bool, waitMS uint32) {
	if elapsed := nowNS - b.lastNS; elapsed > 0 {
		b.tokens += float64(elapsed) * 1e-9 * b.rate
		if b.tokens > b.cap {
			b.tokens = b.cap
		}
	}
	b.lastNS = nowNS
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, retryAfterMS(1-b.tokens, b.rate)
}

// retryAfterMS converts a token deficit at a given refill rate into a
// milliseconds hint: ceil(deficit/rate), floored at 1ms, capped so a
// tiny rate cannot overflow the u32 wire field.
func retryAfterMS(deficit, rate float64) uint32 {
	if rate <= 0 {
		return math.MaxUint32
	}
	ms := math.Ceil(deficit / rate * 1000)
	if ms < 1 {
		ms = 1
	}
	if ms > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ms)
}

// ParsePolicies parses a tenant-policy spec of the form
//
//	name:key=value,key=value;name2:key=value...
//
// with keys class, rate (requests/second), burst (requests) and queue
// (requests). Omitted keys inherit from def. An empty spec is valid and
// yields no per-tenant overrides (every tenant gets def).
func ParsePolicies(spec string, def Policy) (map[string]Policy, error) {
	out := map[string]Policy{}
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, kvs, ok := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("grant: tenant spec %q: want name:key=value,...", entry)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("grant: tenant %q specified twice", name)
		}
		pol := def
		for _, kv := range strings.Split(kvs, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("grant: tenant %q: %q is not key=value", name, kv)
			}
			switch strings.TrimSpace(key) {
			case "class":
				c, err := strconv.Atoi(strings.TrimSpace(val))
				if err != nil {
					return nil, fmt.Errorf("grant: tenant %q: class %q: %v", name, val, err)
				}
				pol.Class = c
			case "rate":
				r, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err != nil {
					return nil, fmt.Errorf("grant: tenant %q: rate %q: %v", name, val, err)
				}
				pol.Rate = r
			case "burst":
				b, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err != nil {
					return nil, fmt.Errorf("grant: tenant %q: burst %q: %v", name, val, err)
				}
				pol.Burst = b
			case "queue":
				q, err := strconv.Atoi(strings.TrimSpace(val))
				if err != nil {
					return nil, fmt.Errorf("grant: tenant %q: queue %q: %v", name, val, err)
				}
				pol.Queue = q
			default:
				return nil, fmt.Errorf("grant: tenant %q: unknown key %q (want class, rate, burst or queue)", name, key)
			}
		}
		if err := pol.validate(); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
		out[name] = pol
	}
	return out, nil
}
