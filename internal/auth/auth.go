// Package auth implements the authentication component of the paper's
// section-2 distributed design: "some additional mechanism to authenticate
// the identities of users as they log in to the single-user machines and to
// inform the file and printer-servers of the security classifications
// associated with each user."
//
// The component is a trusted distsys.Component. User terminals reach it on
// dedicated wires (one per terminal); it verifies credentials and, on
// success, announces the user's clearance to every registered server over
// further dedicated wires. Physical wiring identifies the terminal — no
// network-style identity spoofing is possible in the distributed design,
// which is part of what makes this component small enough to verify.
package auth

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/distsys"
	"repro/internal/mls"
)

// Credential is one registered user.
type Credential struct {
	User      string
	PassHash  [32]byte
	Clearance mls.Label
}

// HashPassword derives the stored verifier for a password.
func HashPassword(pw string) [32]byte { return sha256.Sum256([]byte(pw)) }

// Service is the authentication component.
//
// Ports:
//
//	term_<name>      (in)  login requests from terminal <name>
//	re_term_<name>   (out) replies to terminal <name>
//	server_<name>    (out) clearance announcements to server <name>
type Service struct {
	name    string
	users   map[string]Credential
	servers []string
	// sessions: terminal -> logged-in user ("" = none)
	sessions map[string]string
	attempts int
	failures int
}

// New creates the service. servers lists the component names that must be
// told about successful logins (each needs a wired "server_<name>" port).
func New(name string, servers ...string) *Service {
	return &Service{
		name:     name,
		users:    map[string]Credential{},
		servers:  append([]string(nil), servers...),
		sessions: map[string]string{},
	}
}

// Register adds a user with a password and clearance.
func (s *Service) Register(user, password string, clearance mls.Label) {
	s.users[user] = Credential{User: user, PassHash: HashPassword(password), Clearance: clearance}
}

// Name implements distsys.Component.
func (s *Service) Name() string { return s.name }

// Poll implements distsys.Component.
func (s *Service) Poll(distsys.Context) bool { return false }

// Handle implements distsys.Component.
//
// Login protocol: a terminal sends
//
//	Msg("login", "user", u, "pass", p)
//
// and receives either ("welcome","user",u,"clearance",compact) or
// ("denied","why",reason). On success every server is sent
// ("clearance","user",u,"terminal",t,"label",compact). A "logout" message
// clears the terminal's session and announces ("logout","user",u) to the
// servers.
func (s *Service) Handle(ctx distsys.Context, port string, m distsys.Message) {
	if len(port) < 6 || port[:5] != "term_" {
		return // not a terminal port: ignore
	}
	terminal := port[5:]
	reply := "re_term_" + terminal
	switch m.Kind {
	case "login":
		s.attempts++
		user := m.Arg("user")
		cred, ok := s.users[user]
		if !ok || HashPassword(m.Arg("pass")) != cred.PassHash {
			s.failures++
			ctx.Send(reply, distsys.Msg("denied", "why", "bad credentials"))
			return
		}
		s.sessions[terminal] = user
		compact := cred.Clearance.Compact()
		ctx.Send(reply, distsys.Msg("welcome", "user", user, "clearance", compact))
		for _, srv := range s.servers {
			ctx.Send("server_"+srv, distsys.Msg("clearance",
				"user", user, "terminal", terminal, "label", compact))
		}
	case "logout":
		user := s.sessions[terminal]
		if user == "" {
			return
		}
		delete(s.sessions, terminal)
		ctx.Send(reply, distsys.Msg("bye", "user", user))
		for _, srv := range s.servers {
			ctx.Send("server_"+srv, distsys.Msg("logout", "user", user, "terminal", terminal))
		}
	case "whoami":
		ctx.Send(reply, distsys.Msg("you", "user", s.sessions[terminal]))
	}
}

// SessionUser returns the user logged in at a terminal.
func (s *Service) SessionUser(terminal string) string { return s.sessions[terminal] }

// Stats reports attempt/failure counters.
func (s *Service) Stats() (attempts, failures int) { return s.attempts, s.failures }

// VerifierString renders a credential hash for audit displays.
func VerifierString(h [32]byte) string { return hex.EncodeToString(h[:8]) }
