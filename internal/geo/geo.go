// Package geo models a synthetic IPv4 address space with country
// allocations, residential/datacenter classification, and WHOIS-style
// records. The attacker simulation draws proxy IPs from this space to
// reproduce the paper's §6.4.3 observations: logins arriving from a global
// network of predominantly compromised residential machines spanning ~92
// countries, led by Russia, China, the USA and Vietnam, with a minority of
// datacenter hosts serving legitimate content.
package geo

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
)

// Country describes one country's slice of the synthetic address space.
type Country struct {
	Code string
	Name string
	// ProxyWeight is the relative likelihood that an attacker proxy is
	// located in this country. Weights are calibrated so the top countries
	// match the paper: RU 194, CN 144, US 135, VN 89 of 1,316 IPs.
	ProxyWeight float64
	// DatacenterFrac is the fraction of this country's space classified as
	// datacenter rather than residential/consumer.
	DatacenterFrac float64

	slash8s []int // first octets of the /8 blocks this country owns
}

// Space is a synthetic IPv4 allocation: each country owns one or more /8
// blocks. Space methods are safe for concurrent use after construction
// except Sample*, which take an explicit *rand.Rand owned by the caller.
type Space struct {
	countries []Country
	byCode    map[string]*Country
	slash8    [256]*Country // /8 first octet -> owning country
	cumWeight []float64     // prefix sums over countries for sampling
	total     float64
}

// NewSpace builds the standard synthetic space with the package's built-in
// country table.
func NewSpace() *Space {
	s := &Space{byCode: make(map[string]*Country)}
	// Usable unicast /8s, skipping 0/8, RFC1918 10/8, loopback 127/8, and
	// multicast/reserved space at 224 and above.
	var usable []int
	for a := 1; a < 224; a++ {
		if a == 10 || a == 127 {
			continue
		}
		usable = append(usable, a)
	}
	next := 0
	for _, c := range countryTable {
		if next+c.slash8s > len(usable) {
			panic("geo: country table exceeds available /8 space")
		}
		c2 := Country{
			Code:           c.code,
			Name:           c.name,
			ProxyWeight:    c.weight,
			DatacenterFrac: c.dcFrac,
			slash8s:        usable[next : next+c.slash8s],
		}
		next += c.slash8s
		s.countries = append(s.countries, c2)
	}
	for i := range s.countries {
		c := &s.countries[i]
		s.byCode[c.Code] = c
		for _, a := range c.slash8s {
			s.slash8[a] = c
		}
		s.total += c.ProxyWeight
		s.cumWeight = append(s.cumWeight, s.total)
	}
	return s
}

// Countries returns the country table in allocation order.
func (s *Space) Countries() []Country {
	out := make([]Country, len(s.countries))
	copy(out, s.countries)
	return out
}

// NumCountries returns the number of countries in the space.
func (s *Space) NumCountries() int { return len(s.countries) }

// Lookup returns the country owning ip and whether ip is inside the space.
func (s *Space) Lookup(ip netip.Addr) (Country, bool) {
	if !ip.Is4() {
		return Country{}, false
	}
	b := ip.As4()
	c := s.slash8[b[0]]
	if c == nil {
		return Country{}, false
	}
	return *c, true
}

// IsDatacenter reports whether ip falls in the datacenter-classified portion
// of its country's space. Classification is positional and deterministic:
// the low second-octet range of each country's space is datacenter, sized by
// the country's DatacenterFrac.
func (s *Space) IsDatacenter(ip netip.Addr) bool {
	c, ok := s.Lookup(ip)
	if !ok {
		return false
	}
	b := ip.As4()
	cut := int(c.DatacenterFrac * 256)
	return int(b[1]) < cut
}

// SampleCountry picks a country with probability proportional to its
// ProxyWeight.
func (s *Space) SampleCountry(rng *rand.Rand) Country { return *s.sampleCountry(rng) }

func (s *Space) sampleCountry(rng *rand.Rand) *Country {
	x := rng.Float64() * s.total
	i := sort.SearchFloat64s(s.cumWeight, x)
	if i >= len(s.countries) {
		i = len(s.countries) - 1
	}
	return &s.countries[i]
}

// SampleProxyIP draws a proxy IP: country by ProxyWeight, then a uniform
// host address inside that country's allocation (which lands in datacenter
// space with probability ≈ DatacenterFrac).
func (s *Space) SampleProxyIP(rng *rand.Rand) netip.Addr {
	return sampleIP(rng, s.sampleCountry(rng))
}

// SampleIPIn draws a uniform host address inside the named country's
// allocation. It panics on an unknown country code: the caller controls the
// code set.
func (s *Space) SampleIPIn(rng *rand.Rand, code string) netip.Addr {
	c, ok := s.byCode[code]
	if !ok {
		panic(fmt.Sprintf("geo: unknown country code %q", code))
	}
	return sampleIP(rng, c)
}

// sampleIP draws a uniform host address inside c's allocation.
func sampleIP(rng *rand.Rand, c *Country) netip.Addr {
	a := byte(c.slash8s[rng.Intn(len(c.slash8s))])
	return netip.AddrFrom4([4]byte{a, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
}

// Anonymize24 returns the /24 containing ip in "a.b.c.0/24" form, the
// granularity at which the paper releases login data (§7.4).
func Anonymize24(ip netip.Addr) string {
	if !ip.Is4() {
		return ip.String()
	}
	b := ip.As4()
	return fmt.Sprintf("%d.%d.%d.0/24", b[0], b[1], b[2])
}

// Whois is a WHOIS-style record for an address.
type Whois struct {
	NetRange    string
	OrgName     string
	CountryCode string
	Residential bool
}

// Whois returns a synthetic WHOIS record for ip. Records are deterministic
// functions of the address so repeated lookups agree.
func (s *Space) Whois(ip netip.Addr) (Whois, bool) {
	c, ok := s.Lookup(ip)
	if !ok {
		return Whois{}, false
	}
	b := ip.As4()
	res := !s.IsDatacenter(ip)
	org := fmt.Sprintf("%s Consumer Broadband %d", c.Name, b[1])
	if !res {
		org = fmt.Sprintf("%s Hosting DC-%d", c.Name, b[1])
	}
	return Whois{
		NetRange:    fmt.Sprintf("%d.%d.0.0/16", b[0], b[1]),
		OrgName:     org,
		CountryCode: c.Code,
		Residential: res,
	}, true
}

// ReverseDNS returns the synthetic PTR record for ip: residential addresses
// resolve to consumer-ISP pool names, datacenter addresses to hosting
// hostnames. The paper spot-checked reverse DNS to confirm the
// residential/datacenter split (§6.4.3, footnote 6); records here are
// deterministic and consistent with Whois.
func (s *Space) ReverseDNS(ip netip.Addr) (string, bool) {
	c, ok := s.Lookup(ip)
	if !ok {
		return "", false
	}
	b := ip.As4()
	cc := strings.ToLower(c.Code)
	if s.IsDatacenter(ip) {
		return fmt.Sprintf("srv-%d-%d.dc%d.%s-hosting.test", b[2], b[3], b[1], cc), true
	}
	return fmt.Sprintf("pool-%d-%d-%d.dyn.%s-broadband.test", b[1], b[2], b[3], cc), true
}

// countryTable lists 92 countries (matching the paper's count) with proxy
// weights shaped so RU > CN > US > VN dominate, a long tail below, and
// roughly 10-15% datacenter space overall.
var countryTable = []struct {
	code    string
	name    string
	weight  float64
	dcFrac  float64
	slash8s int
}{
	{"RU", "Russia", 194, 0.08, 3},
	{"CN", "China", 144, 0.10, 3},
	{"US", "United States", 135, 0.25, 4},
	{"VN", "Vietnam", 89, 0.05, 2},
	{"IN", "India", 55, 0.08, 2},
	{"BR", "Brazil", 48, 0.07, 2},
	{"ID", "Indonesia", 44, 0.05, 2},
	{"UA", "Ukraine", 40, 0.09, 1},
	{"TR", "Turkey", 36, 0.06, 1},
	{"TH", "Thailand", 33, 0.05, 1},
	{"DE", "Germany", 30, 0.20, 2},
	{"MX", "Mexico", 28, 0.05, 1},
	{"PH", "Philippines", 26, 0.04, 1},
	{"IR", "Iran", 25, 0.05, 1},
	{"PK", "Pakistan", 23, 0.04, 1},
	{"EG", "Egypt", 21, 0.04, 1},
	{"FR", "France", 20, 0.18, 1},
	{"IT", "Italy", 19, 0.10, 1},
	{"PL", "Poland", 18, 0.10, 1},
	{"GB", "United Kingdom", 17, 0.20, 1},
	{"RO", "Romania", 16, 0.12, 1},
	{"AR", "Argentina", 15, 0.05, 1},
	{"CO", "Colombia", 14, 0.04, 1},
	{"MY", "Malaysia", 13, 0.06, 1},
	{"KR", "South Korea", 12, 0.12, 1},
	{"ES", "Spain", 12, 0.10, 1},
	{"NL", "Netherlands", 11, 0.30, 1},
	{"BD", "Bangladesh", 11, 0.03, 1},
	{"SA", "Saudi Arabia", 10, 0.06, 1},
	{"ZA", "South Africa", 10, 0.06, 1},
	{"JP", "Japan", 9, 0.15, 1},
	{"TW", "Taiwan", 9, 0.10, 1},
	{"CA", "Canada", 8, 0.18, 1},
	{"PE", "Peru", 8, 0.03, 1},
	{"CL", "Chile", 7, 0.05, 1},
	{"VE", "Venezuela", 7, 0.03, 1},
	{"MA", "Morocco", 6, 0.03, 1},
	{"DZ", "Algeria", 6, 0.02, 1},
	{"IQ", "Iraq", 6, 0.02, 1},
	{"KZ", "Kazakhstan", 5, 0.04, 1},
	{"RS", "Serbia", 5, 0.06, 1},
	{"BG", "Bulgaria", 5, 0.10, 1},
	{"HU", "Hungary", 5, 0.08, 1},
	{"CZ", "Czechia", 4, 0.10, 1},
	{"GR", "Greece", 4, 0.05, 1},
	{"PT", "Portugal", 4, 0.06, 1},
	{"SE", "Sweden", 4, 0.15, 1},
	{"AT", "Austria", 3, 0.10, 1},
	{"CH", "Switzerland", 3, 0.15, 1},
	{"BE", "Belgium", 3, 0.12, 1},
	{"AU", "Australia", 3, 0.12, 1},
	{"NG", "Nigeria", 3, 0.02, 1},
	{"KE", "Kenya", 3, 0.03, 1},
	{"TN", "Tunisia", 3, 0.02, 1},
	{"JO", "Jordan", 2, 0.03, 1},
	{"LB", "Lebanon", 2, 0.03, 1},
	{"AE", "UAE", 2, 0.10, 1},
	{"IL", "Israel", 2, 0.10, 1},
	{"SG", "Singapore", 2, 0.30, 1},
	{"HK", "Hong Kong", 2, 0.25, 1},
	{"NZ", "New Zealand", 2, 0.08, 1},
	{"IE", "Ireland", 2, 0.20, 1},
	{"DK", "Denmark", 2, 0.12, 1},
	{"NO", "Norway", 2, 0.10, 1},
	{"FI", "Finland", 2, 0.12, 1},
	{"SK", "Slovakia", 2, 0.08, 1},
	{"HR", "Croatia", 2, 0.06, 1},
	{"SI", "Slovenia", 1, 0.06, 1},
	{"LT", "Lithuania", 1, 0.10, 1},
	{"LV", "Latvia", 1, 0.10, 1},
	{"EE", "Estonia", 1, 0.10, 1},
	{"BY", "Belarus", 1, 0.05, 1},
	{"MD", "Moldova", 1, 0.06, 1},
	{"GE", "Georgia", 1, 0.04, 1},
	{"AM", "Armenia", 1, 0.04, 1},
	{"AZ", "Azerbaijan", 1, 0.04, 1},
	{"UZ", "Uzbekistan", 1, 0.03, 1},
	{"MN", "Mongolia", 1, 0.03, 1},
	{"NP", "Nepal", 1, 0.02, 1},
	{"LK", "Sri Lanka", 1, 0.03, 1},
	{"MM", "Myanmar", 1, 0.02, 1},
	{"KH", "Cambodia", 1, 0.02, 1},
	{"EC", "Ecuador", 1, 0.03, 1},
	{"BO", "Bolivia", 1, 0.02, 1},
	{"PY", "Paraguay", 1, 0.02, 1},
	{"UY", "Uruguay", 1, 0.04, 1},
	{"CR", "Costa Rica", 1, 0.04, 1},
	{"PA", "Panama", 1, 0.05, 1},
	{"DO", "Dominican Republic", 1, 0.03, 1},
	{"GT", "Guatemala", 1, 0.02, 1},
	{"GH", "Ghana", 1, 0.02, 1},
	{"ET", "Ethiopia", 1, 0.02, 1},
}
