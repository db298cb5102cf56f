package transport

import "syscall"

// sysSendmmsg is sendmmsg(2)'s number on linux/arm64 (269).
const sysSendmmsg = syscall.SYS_SENDMMSG
