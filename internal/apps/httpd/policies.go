// The gateway's load-balancing policy catalogue: the §3.2 ASP variants
// that differ only in how pickServer chooses a physical server. The
// paper's §5 point is that swapping the policy means re-downloading one
// ASP and nothing else: any entry rolls out through fleet.Deploy, or as
// a self-promoting canary through the adaptation controller
// (internal/adapt) that rolls it back when its guards trip.
package httpd

import "planp.dev/planp/asp"

// GatewayPolicy is one deployable load-balancing variant of the §3.2
// cluster gateway.
type GatewayPolicy struct {
	// Name is the stable policy key (GatewayPolicyNamed looks it up).
	Name string
	// Source is the PLAN-P program implementing the policy.
	Source string
	// Description says when an operator would prefer this variant.
	Description string
}

// GatewayPolicies lists the deployable gateway variants. All are
// verified for single-node deployment (they rewrite destination
// addresses, which network-wide verification forbids).
func GatewayPolicies() []GatewayPolicy {
	return []GatewayPolicy{
		{
			Name:        "roundrobin",
			Source:      asp.HTTPGateway,
			Description: "alternate servers connection by connection (the paper's measurement policy); best when the cluster is homogeneous and healthy",
		},
		{
			Name:        "random",
			Source:      asp.HTTPGatewayRandom,
			Description: "random server per connection; statistically balanced without shared state",
		},
		{
			Name:        "leastconn",
			Source:      asp.HTTPGatewayLeastConn,
			Description: "fewest in-flight connections wins; shifts load away from slow or silently failing servers",
		},
		{
			Name:        "failover",
			Source:      asp.HTTPGatewayFailover,
			Description: "modulo policy plus administrator-driven server removal and automatic connection failover",
		},
	}
}

// GatewayPolicyNamed returns the named policy, or false.
func GatewayPolicyNamed(name string) (GatewayPolicy, bool) {
	for _, p := range GatewayPolicies() {
		if p.Name == name {
			return p, true
		}
	}
	return GatewayPolicy{}, false
}
