//! Minimal readiness source for the server reactor.
//!
//! The socket server's readiness pump needs exactly four operations:
//! register a socket under a `u64` token, switch its writable interest on
//! and off, wait for ready sockets, and let closed sockets fall out of the
//! interest set. On x86_64 Linux this is `epoll` — invoked through raw
//! syscalls because the workspace carries no `libc` (every external
//! dependency is an offline compat stand-in). Everywhere else
//! [`Poller::new`] reports `Unsupported` and the server falls back to its
//! portable scan loop.
//!
//! Design notes:
//!
//! - **Level-triggered, read interest always, write interest while
//!   blocked.** The reactor drains each ready socket up to its budget and
//!   relies on level-triggering to be re-woken for leftovers. Outboxes
//!   drain in the same pump that fills them in the common case; only a
//!   socket that refused bytes gets writable interest ([`Poller::modify`]),
//!   until its outbox is empty.
//! - **No explicit deregistration on close.** The kernel removes an fd
//!   from every epoll interest list when its last descriptor closes,
//!   which is exactly when the reactor drops a `Conn`. [`Poller::del`]
//!   exists for the eviction path where the stream is swapped out before
//!   being dropped, and tolerates `ENOENT`.

/// One readiness notification: the token passed at registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready {
    /// Token supplied to [`Poller::add`] for the ready fd.
    pub token: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::Ready;
    use std::io;

    const SYS_CLOSE: u64 = 3;
    const SYS_EPOLL_WAIT: u64 = 232;
    const SYS_EPOLL_CTL: u64 = 233;
    const SYS_EPOLL_CREATE1: u64 = 291;

    const EPOLL_CLOEXEC: u64 = 0x80000;
    const EPOLL_CTL_ADD: u64 = 1;
    const EPOLL_CTL_DEL: u64 = 2;
    const EPOLL_CTL_MOD: u64 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;

    const ENOENT: i64 = 2;
    const EINTR: i64 = 4;

    /// Kernel ABI layout for `struct epoll_event` on x86_64 (packed: the
    /// kernel declares it with `__attribute__((packed))` on this arch).
    #[repr(C, packed)]
    #[derive(Debug, Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Raw syscall returning the kernel's `long` result (negative errno on
    /// failure). Only clobbers rcx/r11 per the syscall ABI.
    #[inline]
    unsafe fn syscall4(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64) -> i64 {
        let ret: i64;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as i64 => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error((-ret) as i32))
        } else {
            Ok(ret)
        }
    }

    /// What an `epoll_wait` returned, as an event count: a wait a signal
    /// interrupted (`EINTR`) returned none; any other error stays one.
    pub(super) fn waited(ret: i64) -> io::Result<usize> {
        if ret == -EINTR {
            return Ok(0);
        }
        check(ret).map(|n| n as usize)
    }

    /// An epoll instance owning its descriptor.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
        /// Reused kernel-event buffer so `wait` never allocates.
        events: Vec<EpollEvent>,
    }

    impl Poller {
        /// Creates an epoll instance, or fails with the kernel's error.
        pub fn new() -> io::Result<Self> {
            let epfd = check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })?;
            Ok(Self {
                epfd: epfd as i32,
                events: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        /// Registers `fd` for level-triggered read readiness under `token`.
        pub fn add(&self, fd: i32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN)
        }

        /// Sets whether the registered `fd` is also reported when it is
        /// writable; read readiness stays on either way.
        pub fn modify(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
            let events = if writable {
                EPOLLIN | EPOLLOUT
            } else {
                EPOLLIN
            };
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        fn ctl(&self, op: u64, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let ev = EpollEvent {
                events,
                data: token,
            };
            check(unsafe {
                syscall4(
                    SYS_EPOLL_CTL,
                    self.epfd as u64,
                    op,
                    fd as u64,
                    &ev as *const EpollEvent as u64,
                )
            })?;
            Ok(())
        }

        /// Removes `fd` from the interest set. Already-gone fds (closed, so
        /// auto-deregistered by the kernel) are not an error.
        pub fn del(&self, fd: i32) -> io::Result<()> {
            let ev = EpollEvent { events: 0, data: 0 };
            let ret = unsafe {
                syscall4(
                    SYS_EPOLL_CTL,
                    self.epfd as u64,
                    EPOLL_CTL_DEL,
                    fd as u64,
                    &ev as *const EpollEvent as u64,
                )
            };
            if ret == -ENOENT {
                return Ok(());
            }
            check(ret)?;
            Ok(())
        }

        /// Collects ready tokens, appending to `out`. `timeout_ms = 0`
        /// polls without blocking (the cooperative pump); a positive
        /// timeout parks the caller in the kernel until an event fires or
        /// the timeout lapses — the reactor's idle wait. Returns the
        /// number of events appended; a wait a signal interrupted appended
        /// none ([`waited`]).
        pub fn wait(&mut self, out: &mut Vec<Ready>, timeout_ms: i32) -> io::Result<usize> {
            let n = waited(unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.epfd as u64,
                    self.events.as_mut_ptr() as u64,
                    self.events.len() as u64,
                    timeout_ms.max(0) as u64,
                )
            })?;
            for ev in &self.events[..n] {
                out.push(Ready { token: ev.data });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                syscall4(SYS_CLOSE, self.epfd as u64, 0, 0, 0);
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::Ready;
    use std::io;

    /// Stub poller for targets without the raw-syscall epoll shim. Never
    /// constructs; the server keeps the portable scan loop.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always fails: readiness polling is unavailable on this target.
        pub fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the epoll shim exists only on x86_64 linux",
            ))
        }

        /// Unreachable (the stub never constructs).
        pub fn add(&self, _fd: i32, _token: u64) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        /// Unreachable (the stub never constructs).
        pub fn modify(&self, _fd: i32, _token: u64, _writable: bool) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        /// Unreachable (the stub never constructs).
        pub fn del(&self, _fd: i32) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        /// Unreachable (the stub never constructs).
        pub fn wait(&mut self, _out: &mut Vec<Ready>, _timeout_ms: i32) -> io::Result<usize> {
            unreachable!("stub poller cannot be constructed")
        }
    }
}

pub use imp::Poller;

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn epoll_reports_readable_tcp_data() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        poller
            .add(listener.as_raw_fd(), u64::MAX)
            .expect("add listener");

        // Nothing pending: wait returns no events.
        let mut ready = Vec::new();
        assert_eq!(poller.wait(&mut ready, 0).expect("wait"), 0);

        // A connect attempt makes the listener readable.
        let mut client = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(std::time::Duration::from_millis(20));
        ready.clear();
        poller.wait(&mut ready, 0).expect("wait");
        assert_eq!(ready, vec![Ready { token: u64::MAX }]);

        // Level-triggered: still readable until accepted.
        ready.clear();
        poller.wait(&mut ready, 0).expect("wait");
        assert_eq!(ready.len(), 1);

        let (server_side, _) = listener.accept().expect("accept");
        poller.add(server_side.as_raw_fd(), 7).expect("add conn");
        ready.clear();
        assert_eq!(poller.wait(&mut ready, 0).expect("wait"), 0);

        client.write_all(b"ping").expect("write");
        std::thread::sleep(std::time::Duration::from_millis(20));
        ready.clear();
        poller.wait(&mut ready, 0).expect("wait");
        assert_eq!(ready, vec![Ready { token: 7 }]);

        // Writable interest reports the idle socket until switched off.
        poller
            .modify(server_side.as_raw_fd(), 7, true)
            .expect("modify");
        let mut reader = &server_side;
        std::io::Read::read(&mut reader, &mut [0u8; 4]).expect("drain ping");
        ready.clear();
        poller.wait(&mut ready, 0).expect("wait");
        assert_eq!(ready, vec![Ready { token: 7 }]);
        poller
            .modify(server_side.as_raw_fd(), 7, false)
            .expect("modify");
        ready.clear();
        assert_eq!(poller.wait(&mut ready, 0).expect("wait"), 0);

        // Deregistration stops notifications; double-del is tolerated.
        poller.del(server_side.as_raw_fd()).expect("del");
        poller.del(server_side.as_raw_fd()).expect("del again");
        ready.clear();
        assert_eq!(poller.wait(&mut ready, 0).expect("wait"), 0);
    }

    /// A signal interrupting the wait (a profiler's `SIGPROF`, say) is a
    /// wait without events, so the reactor keeps its poller; any other
    /// failure is still an error, which drops it.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn an_interrupted_wait_returns_no_events() {
        use std::io::ErrorKind;
        assert_eq!(imp::waited(3).expect("events"), 3);
        assert_eq!(imp::waited(-4).expect("EINTR is no error"), 0);
        let bad = imp::waited(-9).expect_err("EBADF");
        assert_eq!(bad.raw_os_error(), Some(9));
        assert_ne!(bad.kind(), ErrorKind::Interrupted);
    }

    #[test]
    fn availability_matches_cfg() {
        assert_eq!(
            Poller::new().is_ok(),
            cfg!(all(target_os = "linux", target_arch = "x86_64"))
        );
    }
}
