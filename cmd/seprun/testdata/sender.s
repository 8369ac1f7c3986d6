; Sends the words 1..10 on channel 0, yielding after each, then halts.
	.org 0x40
start:
	MOV #1, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD #1, R2
	CMP #11, R2
	BEQ done
	TRAP #SWAP
	BR loop
done:
	TRAP #HALTME
