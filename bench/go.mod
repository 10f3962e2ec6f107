// The benchmark is a module of its own so the repo's tier-1 commands
// (go build ./..., go test ./...) never compile it. The module path sits
// under "periscope/", which is what lets it import periscope/internal/...
module periscope/bench

go 1.24

require periscope v0.0.0

replace periscope => ../
