// Quantum teleportation (paper Sec. 5.1): the message |v> = (|0> + i|1>)/sqrt(2)
// of the paper is prepared on q[0], teleported to q[2], and un-prepared there,
// so the last measured bit is 0 on every shot whatever the Bell measurement gave.
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
s q[0];
h q[1];
cx q[1], q[2];
cx q[0], q[1];
h q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
cx q[1], q[2];
cz q[0], q[2];
sdg q[2];
h q[2];
measure q[2] -> c[2];
