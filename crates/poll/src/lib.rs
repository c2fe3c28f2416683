//! # osarch-poll
//!
//! A minimal readiness-notification shim for the event-driven server
//! core: Linux `epoll(7)` reached through a five-function FFI surface
//! (`epoll_create1` / `epoll_ctl` / `epoll_wait` / `close`, plus
//! `listen` for [`deepen_backlog`]), hidden behind the [`Readiness`]
//! trait, with a portable timer-tick fallback for every other platform.
//! A safe [`Waker`] built on `UnixStream::pair` lets other threads
//! interrupt a blocked `wait`.
//!
//! Design rules, in order:
//!
//! 1. **All unsafe in the workspace lives here.** The rest of the
//!    workspace forbids `unsafe_code`; this crate is the one audited
//!    exception, and the unsafe surface is five `extern "C"` calls.
//! 2. **Level-triggered only.** Callers may drop events on the floor;
//!    the next `wait` re-reports any fd that is still ready. The
//!    fallback poller leans on this: it simply reports every registered
//!    fd as ready on a ~1ms tick and lets the caller's nonblocking I/O
//!    discover `WouldBlock`.
//! 3. **Spurious readiness is allowed, missed readiness is not.**
//!    Consumers must treat `readable`/`writable` as hints.
//!
//! The kqueue path named in the roadmap is intentionally *not* FFI'd
//! yet: non-Linux hosts get the portable fallback, which is correct
//! (rule 3) if less efficient. The trait boundary is where a kqueue
//! implementation would slot in.

use std::io;
use std::time::Duration;

/// Caller-chosen identifier attached to a registered fd and echoed in
/// every [`Event`] for it.
pub type Token = usize;

/// Raw file descriptor, as accepted by the registration calls.
#[cfg(unix)]
pub type Fd = std::os::fd::RawFd;
/// Raw file descriptor placeholder on non-unix hosts (fallback poller
/// never dereferences it).
#[cfg(not(unix))]
pub type Fd = i64;

/// Extract the raw fd from any socket-like type.
#[cfg(unix)]
pub fn fd_of<T: std::os::fd::AsRawFd>(source: &T) -> Fd {
    source.as_raw_fd()
}

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or hit EOF / error).
    pub readable: bool,
    /// Wake when the fd can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of a served connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — used while a write backlog is draining.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Readiness::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token given at registration time.
    pub token: Token,
    /// The fd is (probably) readable; includes EOF and error states so
    /// a read attempt will observe them.
    pub readable: bool,
    /// The fd is (probably) writable.
    pub writable: bool,
    /// The peer hung up or the fd is in an error state.
    pub hangup: bool,
}

/// The poll shim: epoll on Linux, timer-tick fallback elsewhere.
///
/// Level-triggered semantics; spurious readiness allowed.
pub trait Readiness: Send {
    /// Backend name, for logs and stats (`"epoll"` or `"fallback"`).
    fn name(&self) -> &'static str;
    /// Start watching `fd` with the given token and interest.
    fn register(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()>;
    /// Change the interest set of an already-registered fd.
    fn reregister(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()>;
    /// Stop watching `fd`. Must be called before the fd is closed.
    fn deregister(&mut self, fd: Fd) -> io::Result<()>;
    /// Block for up to `timeout` (forever if `None`), clearing `events`
    /// and filling it with the current readiness reports. Returns the
    /// number of events delivered; `EINTR` surfaces as `Ok(0)`.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize>;
}

/// Build the best poller available on this host. Tries epoll on Linux
/// and silently degrades to the portable fallback if the kernel
/// refuses (e.g. seccomp'd containers).
pub fn new_poller() -> Box<dyn Readiness> {
    #[cfg(target_os = "linux")]
    {
        if let Ok(poller) = epoll::Epoll::new() {
            return Box::new(poller);
        }
    }
    Box::new(fallback::Fallback::default())
}

/// Deepen a bound listener's accept queue to 4096 connections; the kernel
/// clamps that to `net.core.somaxconn` (4096 by default since Linux 5.4).
///
/// `std::net::TcpListener::bind` listens with a backlog of 128, so a
/// connect storm overflows the queue before the accept thread drains it,
/// and every dropped SYN waits out the client's 1 s retransmit timer.
/// `listen(2)` again on the bound socket raises the depth in place.
/// Linux only; a no-op elsewhere.
///
/// # Errors
///
/// The error of the `listen` call.
#[cfg(target_os = "linux")]
pub fn deepen_backlog(listener: &std::net::TcpListener) -> io::Result<()> {
    extern "C" {
        fn listen(fd: std::ffi::c_int, backlog: std::ffi::c_int) -> std::ffi::c_int;
    }
    // SAFETY: no pointers involved; the fd is owned by `listener`, which
    // outlives the call. Returns -1 on failure.
    let rc = unsafe { listen(fd_of(listener), 4096) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Deepen a bound listener's accept queue: a no-op off Linux.
///
/// # Errors
///
/// Never.
#[cfg(not(target_os = "linux"))]
pub fn deepen_backlog(_listener: &std::net::TcpListener) -> io::Result<()> {
    Ok(())
}

#[cfg(target_os = "linux")]
mod epoll {
    //! The audited unsafe surface: raw epoll(7). Four foreign calls,
    //! each wrapped in a safe method that owns the invariants.

    use super::{Event, Fd, Interest, Readiness, Token};
    use std::ffi::c_int;
    use std::io;
    use std::time::Duration;

    // Mirror of `struct epoll_event`. The kernel ABI packs it on
    // x86/x86_64 (12-byte entries); every other architecture uses
    // natural alignment. Getting this wrong corrupts the event buffer,
    // so the layout is pinned per-arch exactly as libc does.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Upper bound on events drained per `wait` call. Level-triggered
    /// epoll re-reports anything still ready, so a small bound only
    /// batches, never loses.
    const MAX_EVENTS: usize = 1024;

    pub struct Epoll {
        epfd: c_int,
        buf: Vec<EpollEvent>,
    }

    // The epfd is a plain kernel handle; nothing thread-local about it.
    unsafe impl Send for Epoll {}

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers involved; returns -1 on failure.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn ctl(&mut self, op: c_int, fd: Fd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut event = event.unwrap_or(EpollEvent { events: 0, data: 0 });
            // SAFETY: `event` outlives the call; the kernel copies it.
            // (A non-null event is also passed for DEL, which pre-2.6.9
            // kernels required and later kernels ignore.)
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    impl Readiness for Epoll {
        fn name(&self) -> &'static str {
            "epoll"
        }

        fn register(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            let event = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(event))
        }

        fn reregister(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            let event = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(event))
        }

        fn deregister(&mut self, fd: Fd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(duration) => duration.as_millis().min(i32::MAX as u128) as c_int,
            };
            // SAFETY: `buf` is a live, correctly-sized array of
            // EpollEvent; the kernel writes at most MAX_EVENTS entries.
            let count = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if count < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for slot in self.buf.iter().take(count as usize) {
                // Copy out of the (possibly packed) struct by value.
                let bits = slot.events;
                let data = slot.data;
                let hangup = bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0;
                events.push(Event {
                    token: data as Token,
                    // Fold hangup/error into readable so a read attempt
                    // observes EOF or the pending error.
                    readable: bits & EPOLLIN != 0 || hangup,
                    writable: bits & EPOLLOUT != 0 || bits & EPOLLERR != 0,
                    hangup,
                });
            }
            Ok(events.len())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

mod fallback {
    //! Portable poller: no kernel readiness at all. `wait` sleeps for
    //! at most ~1ms and reports every registered fd as ready in every
    //! requested direction. Correct under the crate's "spurious
    //! readiness allowed" contract — nonblocking reads/writes discover
    //! the truth — at the cost of a busy-ish 1kHz tick.

    use super::{Event, Fd, Interest, Readiness, Token};
    use std::io;
    use std::time::Duration;

    const TICK: Duration = Duration::from_millis(1);

    #[derive(Default)]
    pub struct Fallback {
        registered: Vec<(Fd, Token, Interest)>,
    }

    impl Readiness for Fallback {
        fn name(&self) -> &'static str {
            "fallback"
        }

        fn register(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            self.deregister(fd)?;
            self.registered.push((fd, token, interest));
            Ok(())
        }

        fn reregister(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        fn deregister(&mut self, fd: Fd) -> io::Result<()> {
            self.registered
                .retain(|(registered, _, _)| *registered != fd);
            Ok(())
        }

        fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let nap = timeout.map_or(TICK, |t| t.min(TICK));
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            for &(_, token, interest) in &self.registered {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    hangup: false,
                });
            }
            Ok(events.len())
        }
    }
}

/// Wake handle: cloneable, callable from any thread, safe Rust.
#[cfg(unix)]
#[derive(Clone)]
pub struct Waker {
    tx: std::sync::Arc<std::os::unix::net::UnixStream>,
}

#[cfg(unix)]
impl Waker {
    /// Nudge the paired [`WakeRx`]: a blocked `wait` whose poller has
    /// the receiver registered returns promptly. Saturation is fine —
    /// one pending byte is as good as fifty.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Receive side of a waker pair: register `fd()` with the poller and
/// `drain()` whenever it reports readable.
#[cfg(unix)]
pub struct WakeRx {
    rx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl WakeRx {
    /// The fd to register with the poller (read interest).
    pub fn fd(&self) -> Fd {
        fd_of(&self.rx)
    }

    /// Swallow every pending wake byte so level-triggered pollers stop
    /// reporting the waker as readable.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Build a connected waker pair (both ends nonblocking).
#[cfg(unix)]
pub fn waker() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker {
            tx: std::sync::Arc::new(tx),
        },
        WakeRx { rx },
    ))
}

/// Wake handle stub for non-unix hosts: the fallback poller ticks on
/// its own every ~1ms, so an explicit wake is unnecessary.
#[cfg(not(unix))]
#[derive(Clone)]
pub struct Waker;

#[cfg(not(unix))]
impl Waker {
    /// No-op; the fallback poller self-ticks.
    pub fn wake(&self) {}
}

/// Receive-side stub for non-unix hosts.
#[cfg(not(unix))]
pub struct WakeRx;

#[cfg(not(unix))]
impl WakeRx {
    /// Sentinel fd; never registered by callers on these hosts.
    pub fn fd(&self) -> Fd {
        -1
    }

    /// No-op; nothing to drain.
    pub fn drain(&self) {}
}

/// Build a waker-pair stub on non-unix hosts.
#[cfg(not(unix))]
pub fn waker() -> io::Result<(Waker, WakeRx)> {
    Ok((Waker, WakeRx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// A listener nobody accepts from completes a storm of connects: std's
    /// backlog of 128 alone would complete 129 and drop the SYNs after.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_deepened_listener_queues_hundreds_of_unaccepted_connects() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        deepen_backlog(&listener).expect("listen");
        let addr = listener.local_addr().expect("addr");
        // A host whose `net.core.somaxconn` is below 512 clamps the queue
        // to it; ask only for what it can hold.
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|text| text.trim().parse::<usize>().ok())
            .unwrap_or(512);
        let mut held = Vec::new();
        for n in 0..somaxconn.min(512) {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                Ok(stream) => held.push(stream),
                Err(err) => panic!("connect {n} failed: {err}"),
            }
        }
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = new_poller();
        let (wake, rx) = waker().expect("waker pair");
        poller
            .register(rx.fd(), 0, Interest::READ)
            .expect("register waker");

        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            wake.wake();
        });

        // Generous ceiling; the wake must land far sooner.
        let started = std::time::Instant::now();
        let mut events = Vec::new();
        let mut woke = false;
        while started.elapsed() < Duration::from_secs(10) {
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            if events
                .iter()
                .any(|event| event.token == 0 && event.readable)
            {
                woke = true;
                break;
            }
        }
        assert!(woke, "waker never surfaced through {}", poller.name());
        rx.drain();
        handle.join().expect("waker thread");
    }

    #[test]
    fn tcp_readable_surfaces_after_peer_write() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");

        let mut poller = new_poller();
        poller
            .register(fd_of(&served), 7, Interest::READ)
            .expect("register");

        client.write_all(b"hello").expect("write");
        client.flush().expect("flush");

        let started = std::time::Instant::now();
        let mut events = Vec::new();
        let mut saw = false;
        while started.elapsed() < Duration::from_secs(10) {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait");
            if events
                .iter()
                .any(|event| event.token == 7 && event.readable)
            {
                saw = true;
                break;
            }
        }
        assert!(saw, "peer write never reported readable");

        // And the read actually succeeds (spurious-readiness contract:
        // readiness is a hint, the read is the truth).
        let mut served = served;
        let mut buf = [0u8; 16];
        let got = loop {
            match served.read(&mut buf) {
                Ok(n) => break n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("read: {e}"),
            }
        };
        assert_eq!(&buf[..got], b"hello");
    }

    #[test]
    fn write_interest_reports_writable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let _served = listener.accept().expect("accept");

        let mut poller = new_poller();
        poller
            .register(fd_of(&client), 3, Interest::READ_WRITE)
            .expect("register");
        let mut events = Vec::new();
        let started = std::time::Instant::now();
        let mut writable = false;
        while started.elapsed() < Duration::from_secs(10) {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait");
            if events
                .iter()
                .any(|event| event.token == 3 && event.writable)
            {
                writable = true;
                break;
            }
        }
        assert!(writable, "fresh socket with empty send buffer not writable");

        // Deregister: no further events for this token from epoll (the
        // fallback keeps no kernel state, so only check list removal).
        poller.deregister(fd_of(&client)).expect("deregister");
        if poller.name() == "epoll" {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            assert!(
                events.iter().all(|event| event.token != 3),
                "deregistered fd still reporting"
            );
        }
    }
}
