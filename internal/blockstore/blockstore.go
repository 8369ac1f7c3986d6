// Package blockstore realizes the paper's central architectural move at
// machine level: a shared resource (a block store) managed by a dedicated
// trusted component that runs as an ordinary regime on the separation
// kernel, serving client regimes over kernel-mediated channels.
//
// The kernel knows nothing of the store's policy. The per-client slot
// ownership rule ("client A may touch slots 0..15, client B slots 16..31")
// lives entirely in the server regime — the paper's "the task of
// specifying and verifying the properties required of the trusted
// components … should be tackled at this level", with no kernel privilege
// anywhere: the server needs nothing from the kernel that the clients do
// not get too.
package blockstore

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// Protocol: a request is one word —
//
//	bit 15     operation: 1 = PUT, 0 = GET
//	bits 8–14  slot number
//	bits 0–7   value (PUT only)
//
// The reply is one word: the slot's value, or ErrWord for a denied or
// malformed request.
const (
	OpPut   machine.Word = 1 << 15
	ErrWord machine.Word = 0xFFFF
)

// Put encodes a PUT request.
func Put(slot int, val byte) machine.Word {
	return OpPut | machine.Word(slot&0x7f)<<8 | machine.Word(val)
}

// Get encodes a GET request.
func Get(slot int) machine.Word { return machine.Word(slot&0x7f) << 8 }

// ServerSrc is the block-store server regime. Channel plan (indexes are
// global kernel channel ids, fixed by Spec's channel order):
//
//	0: alice -> server    1: server -> alice
//	2: bob   -> server    3: server -> bob
//
// Slot table at virtual 0x100. Alice owns slots 0..15, bob 16..31 — the
// access policy is these few instructions, nothing more.
const ServerSrc = `
	.org 0x40
	.equ TABLE, 0x100
start:
serve:
	MOV #0, R0          ; poll alice's request channel
	TRAP #RECV
	CMP #1, R0
	BNE try_bob
	MOV R1, R4          ; R4 = request word
	MOV #0, R5          ; alice's slot base
	MOV #16, R3         ; alice's slot limit
	JSR handle
	MOV #1, R0          ; reply to alice
	MOV R2, R1
	TRAP #SEND
try_bob:
	MOV #2, R0          ; poll bob's request channel
	TRAP #RECV
	CMP #1, R0
	BNE idle
	MOV R1, R4
	MOV #16, R5         ; bob's slot base
	MOV #32, R3         ; bob's slot limit
	JSR handle
	MOV #3, R0          ; reply to bob
	MOV R2, R1
	TRAP #SEND
idle:
	TRAP #SWAP
	BR serve

; handle: R4 = request, R5 = first owned slot, R3 = first slot past the
; owned range. Returns R2 = reply word.
handle:
	MOV R4, R2
	SHR #8, R2
	AND #0x7F, R2       ; R2 = slot
	CMP R5, R2          ; flags = slot-base? CMP src,dst → src-dst = base-slot
	BGT deny            ; base > slot: below the owned range
	CMP R3, R2          ; limit - slot
	BLE deny            ; limit <= slot: past the owned range
	MOV R4, R1
	AND #0x8000, R1
	BEQ do_get
	; PUT: store the low byte.
	MOV R4, R1
	AND #0xFF, R1
	MOV R2, R0
	ADD #TABLE, R0
	MOV R1, (R0)
	MOV R1, R2          ; reply echoes the stored value
	RTS
do_get:
	MOV R2, R0
	ADD #TABLE, R0
	MOV (R0), R2
	RTS
deny:
	MOV #0xFFFF, R2
	RTS
`

// clientSrc builds a scripted client regime: it sends each request word
// from its table in turn, waits for the reply, and records replies at
// virtual 0x200+i. reqChan/repChan are the client's global channel ids.
func clientSrc(reqChan, repChan int, requests []machine.Word) string {
	src := fmt.Sprintf(`
	.org 0x40
	.equ NREQ, %d
start:
	MOV #0, R4          ; request index
next:
	CMP #NREQ, R4       ; NREQ - R4
	BEQ done
	MOV R4, R3
	ADD #reqtab, R3
	MOV (R3), R1        ; the request word
	MOV #%d, R0
	TRAP #SEND
	CMP #1, R0
	BNE yield_send      ; channel full: retry later
wait:
	MOV #%d, R0
	TRAP #RECV
	CMP #1, R0
	BEQ got
	TRAP #SWAP
	BR wait
got:
	MOV R4, R3
	ADD #0x200, R3
	MOV R1, (R3)        ; record the reply
	ADD #1, R4
	BR next
yield_send:
	TRAP #SWAP
	BR next
done:
	TRAP #HALTME
reqtab:
`, len(requests), reqChan, repChan)
	for _, r := range requests {
		src += fmt.Sprintf("\t.word %#x\n", r)
	}
	return src
}

// System is a booted block-store deployment.
type System struct {
	*kernel.Adapter
}

// Build boots the server plus two scripted clients.
func Build(aliceReqs, bobReqs []machine.Word) (*System, error) {
	return build(Spec(aliceReqs, bobReqs, false))
}

// BuildCut boots the same system with the channel-cutting transformation
// applied, for isolation verification.
func BuildCut(aliceReqs, bobReqs []machine.Word) (*System, error) {
	return build(Spec(aliceReqs, bobReqs, true))
}

// Spec declares the server plus two scripted clients, joined by one request
// and one reply channel per client.
func Spec(aliceReqs, bobReqs []machine.Word, cut bool) witness.SystemSpec {
	return witness.SystemSpec{Kind: "verifysys", Cut: cut,
		Regimes: []witness.RegimeSpec{
			{Name: "server", Source: ServerSrc, Size: 0x400},
			{Name: "alice", Source: clientSrc(0, 1, aliceReqs), Size: 0x400},
			{Name: "bob", Source: clientSrc(2, 3, bobReqs), Size: 0x400},
		},
		Channels: []witness.ChannelSpec{
			{From: "alice", To: "server", Capacity: 8},
			{From: "server", To: "alice", Capacity: 8},
			{From: "bob", To: "server", Capacity: 8},
			{From: "server", To: "bob", Capacity: 8},
		}}
}

func build(spec witness.SystemSpec) (*System, error) {
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	return &System{Adapter: sys}, nil
}

// Replies reads back the replies a client recorded.
func (s *System) Replies(client string, n int) ([]machine.Word, error) {
	var out []machine.Word
	for i := 0; i < n; i++ {
		v, ok := s.K.RegimeWord(client, machine.Word(0x200+i))
		if !ok {
			return nil, fmt.Errorf("blockstore: cannot read %s reply %d", client, i)
		}
		out = append(out, v)
	}
	return out, nil
}
