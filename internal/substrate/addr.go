// Addressing: packed IPv4-style addresses shared by every backend.
package substrate

import (
	"fmt"

	"planp.dev/planp/internal/obs"
)

// Addr is a packed big-endian IPv4-style address.
type Addr uint32

// ParseAddr converts a dotted quad to an Addr. Parsing is strict: four
// decimal octets in 0-255, separated by single dots, nothing else.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	i := 0
	for oct := 0; oct < 4; oct++ {
		if oct > 0 {
			if i >= len(s) || s[i] != '.' {
				return 0, fmt.Errorf("substrate: malformed address %q", s)
			}
			i++
		}
		start := i
		v := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			v = v*10 + int(s[i]-'0')
			if v > 255 {
				return 0, fmt.Errorf("substrate: malformed address %q", s)
			}
			i++
		}
		if i == start || i-start > 3 {
			return 0, fmt.Errorf("substrate: malformed address %q", s)
		}
		a = a<<8 | Addr(v)
	}
	if i != len(s) {
		return 0, fmt.Errorf("substrate: malformed address %q", s)
	}
	return a, nil
}

// MustAddr is ParseAddr that panics on malformed input (for literals in
// scenario setup code).
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address as a dotted quad through obs.AppendAddr,
// the formatter event traces use.
func (a Addr) String() string {
	var buf [15]byte
	return string(obs.AppendAddr(buf[:0], uint32(a)))
}

// MarshalText renders the address as a dotted quad: an Addr is a
// string in JSON.
func (a Addr) MarshalText() ([]byte, error) { return obs.AppendAddr(nil, uint32(a)), nil }

// UnmarshalText parses a dotted quad as strictly as ParseAddr.
func (a *Addr) UnmarshalText(b []byte) error {
	v, err := ParseAddr(string(b))
	if err == nil {
		*a = v
	}
	return err
}

// IsMulticast reports whether a is in the 224.0.0.0/4 group range.
func (a Addr) IsMulticast() bool { return a>>28 == 0xE }
