package transport

// sysSendmmsg is sendmmsg(2)'s number on linux/amd64, which package
// syscall does not define.
const sysSendmmsg = 307
