; Receives from channel 0 forever, keeping the running sum of the words
; received at 0x20; yields whenever the channel is empty.
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	CMP #1, R0
	BNE yield
	ADD R1, R4
	MOV R4, @0x20
	BR loop
yield:
	TRAP #SWAP
	BR loop
