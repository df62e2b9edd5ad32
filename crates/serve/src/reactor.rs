//! A minimal I/O readiness reactor: raw `epoll` on Linux, portable
//! `poll(2)` everywhere else (and on Linux when `DITTO_SERVE_POLL` is set,
//! so tests exercise both paths on one machine).
//!
//! The workspace builds without a crates registry, so this stands in for
//! `mio`/`tokio`: the syscall surface is declared directly with
//! `extern "C"` against the libc that `std` already links. Only the three
//! operations the server needs exist — register/re-register/deregister a
//! file descriptor with a read/write [`Interest`], and a blocking
//! [`Poller::wait`] that fills an [`Event`] list. A [`Waker`] (a
//! non-blocking self-pipe) lets worker threads interrupt a blocked wait to
//! deliver completed responses.
//!
//! Both backends are **level-triggered**: an fd keeps reporting ready until
//! the condition is consumed, so the server never needs to drain a socket
//! in one pass to avoid losing edges.

use std::io;
use std::os::fd::RawFd;

/// Raw POSIX declarations shared by both backends (pipe waker, `poll`).
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    pub const POLLERR: c_short = 0x8;
    pub const POLLHUP: c_short = 0x10;

    pub const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x4;
}

/// Raw `epoll` declarations (Linux only).
#[cfg(target_os = "linux")]
mod esys {
    use std::ffi::c_int;

    /// `struct epoll_event`; packed on x86-64, as the kernel ABI demands.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    pub const EPOLL_CLOEXEC: c_int = 0o200_0000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
}

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// Which readiness a registered fd is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Not currently watched (stays registered; re-arm with
    /// [`Poller::reregister`]).
    None,
    /// Readable only.
    Read,
    /// Writable only.
    Write,
    /// Readable and writable.
    ReadWrite,
}

impl Interest {
    fn wants_read(self) -> bool {
        matches!(self, Interest::Read | Interest::ReadWrite)
    }

    fn wants_write(self) -> bool {
        matches!(self, Interest::Write | Interest::ReadWrite)
    }
}

/// One readiness notification from [`Poller::wait`]. Errors and hang-ups
/// surface as `readable` so the owner's next read observes them.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The ready file descriptor.
    pub fd: RawFd,
    /// Reading would not block (includes error/hup conditions).
    pub readable: bool,
    /// Writing would not block.
    pub writable: bool,
}

/// Reactor backend selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` (default on Linux).
    Epoll,
    /// Portable POSIX `poll(2)` fallback.
    Poll,
}

impl Backend {
    /// `Epoll` on Linux unless the `DITTO_SERVE_POLL` environment variable
    /// is set; `Poll` everywhere else.
    pub fn detect() -> Backend {
        if cfg!(target_os = "linux") && std::env::var_os("DITTO_SERVE_POLL").is_none() {
            Backend::Epoll
        } else {
            Backend::Poll
        }
    }
}

#[cfg(target_os = "linux")]
struct EpollPoller {
    epfd: RawFd,
    buf: Vec<esys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<Self> {
        let epfd = unsafe { esys::epoll_create1(esys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_err());
        }
        Ok(EpollPoller { epfd, buf: vec![esys::EpollEvent { events: 0, data: 0 }; 64] })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.wants_read() {
            m |= esys::EPOLLIN;
        }
        if interest.wants_write() {
            m |= esys::EPOLLOUT;
        }
        m
    }

    fn ctl(&mut self, op: std::ffi::c_int, fd: RawFd, interest: Interest) -> io::Result<()> {
        let mut ev = esys::EpollEvent { events: Self::mask(interest), data: fd as u64 };
        if unsafe { esys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(last_err());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let n = unsafe {
            esys::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, timeout_ms)
        };
        if n < 0 {
            let e = last_err();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            // Copy the (possibly unaligned, packed) fields out by value.
            let (bits, data) = (ev.events, ev.data);
            events.push(Event {
                fd: data as RawFd,
                readable: bits & (esys::EPOLLIN | esys::EPOLLERR | esys::EPOLLHUP) != 0,
                writable: bits & (esys::EPOLLOUT | esys::EPOLLERR | esys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// `poll(2)` keeps the registered set in user space and rebuilds the
/// `pollfd` array per wait — O(n) per call, which is fine at this server's
/// connection counts and portable to any POSIX system.
struct PollPoller {
    registered: Vec<(RawFd, Interest)>,
}

impl PollPoller {
    fn new() -> Self {
        PollPoller { registered: Vec::new() }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let mut fds: Vec<sys::PollFd> = self
            .registered
            .iter()
            .map(|&(fd, interest)| {
                let mut ev = 0;
                if interest.wants_read() {
                    ev |= sys::POLLIN;
                }
                if interest.wants_write() {
                    ev |= sys::POLLOUT;
                }
                sys::PollFd { fd, events: ev, revents: 0 }
            })
            .collect();
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if n < 0 {
            let e = last_err();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for f in &fds {
            if f.revents == 0 {
                continue;
            }
            events.push(Event {
                fd: f.fd,
                readable: f.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0,
                writable: f.revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

enum PollerImpl {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

/// The readiness poller: one of the two backends behind one interface.
pub struct Poller {
    imp: PollerImpl,
}

impl Poller {
    /// Creates a poller on the requested backend. Asking for `Epoll` off
    /// Linux falls back to `Poll`.
    pub fn new(backend: Backend) -> io::Result<Poller> {
        let imp = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => PollerImpl::Epoll(EpollPoller::new()?),
            _ => PollerImpl::Poll(PollPoller::new()),
        };
        Ok(Poller { imp })
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(_) => Backend::Epoll,
            PollerImpl::Poll(_) => Backend::Poll,
        }
    }

    /// Starts watching `fd` with `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (e.g. an already-registered fd).
    pub fn register(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(e) => e.ctl(esys::EPOLL_CTL_ADD, fd, interest),
            PollerImpl::Poll(p) => {
                if p.registered.iter().any(|&(f, _)| f == fd) {
                    return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered"));
                }
                p.registered.push((fd, interest));
                Ok(())
            }
        }
    }

    /// Changes the watched interest of a registered fd.
    ///
    /// # Errors
    ///
    /// Fails if `fd` was never registered.
    pub fn reregister(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(e) => e.ctl(esys::EPOLL_CTL_MOD, fd, interest),
            PollerImpl::Poll(p) => {
                for slot in &mut p.registered {
                    if slot.0 == fd {
                        slot.1 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Stops watching `fd`. Call **before** closing the descriptor.
    ///
    /// # Errors
    ///
    /// Fails if `fd` was never registered.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(e) => e.ctl(esys::EPOLL_CTL_DEL, fd, Interest::None),
            PollerImpl::Poll(p) => {
                let before = p.registered.len();
                p.registered.retain(|&(f, _)| f != fd);
                if p.registered.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` blocks indefinitely), appending to `events`. A signal
    /// interruption returns cleanly with no events.
    ///
    /// # Errors
    ///
    /// Propagates fatal `epoll_wait`/`poll` failures.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(e) => e.wait(events, timeout_ms),
            PollerImpl::Poll(p) => p.wait(events, timeout_ms),
        }
    }
}

/// A self-pipe that interrupts a blocked [`Poller::wait`] from any thread:
/// register [`Waker::fd`] for reads, call [`Waker::wake`] elsewhere, and
/// [`Waker::drain`] when the read end reports ready.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

// The waker only carries two raw descriptors and both `wake` and `drain`
// are single reentrant syscalls, so cross-thread sharing is sound.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Creates the pipe pair, both ends non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates `pipe`/`fcntl` failures.
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0 as std::ffi::c_int; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_err());
        }
        for fd in fds {
            if unsafe { sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK) } < 0 {
                let e = last_err();
                unsafe {
                    sys::close(fds[0]);
                    sys::close(fds[1]);
                }
                return Err(e);
            }
        }
        Ok(Waker { read_fd: fds[0], write_fd: fds[1] })
    }

    /// The read end, for registration with the poller.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes the read end ready. A full pipe means a wake-up is already
    /// pending, so the short write is deliberately ignored.
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe { sys::write(self.write_fd, &byte, 1) };
    }

    /// Consumes all pending wake-up bytes so level-triggered polling does
    /// not spin on the pipe.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    /// A connected loopback pair (accepted side first).
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    #[test]
    fn readiness_tracks_interest_on_both_backends() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            assert_eq!(poller.backend(), backend);
            let (server, mut client) = tcp_pair();
            server.set_nonblocking(true).unwrap();
            let fd = server.as_raw_fd();
            poller.register(fd, Interest::Read).unwrap();

            // Nothing to read yet: a short wait returns no events.
            let mut events = Vec::new();
            poller.wait(&mut events, 50).unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious readiness");

            // Peer data makes it readable.
            client.write_all(b"hi").unwrap();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(events.iter().any(|e| e.fd == fd && e.readable), "{backend:?}");

            // An empty send buffer means write interest fires immediately.
            poller.reregister(fd, Interest::Write).unwrap();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(events.iter().any(|e| e.fd == fd && e.writable), "{backend:?}");

            // Interest::None parks the fd without forgetting it.
            poller.reregister(fd, Interest::None).unwrap();
            poller.wait(&mut events, 50).unwrap();
            assert!(events.iter().all(|e| e.fd != fd), "{backend:?}: parked fd fired");

            poller.deregister(fd).unwrap();
            assert!(poller.deregister(fd).is_err(), "{backend:?}: double deregister");
        }
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        for backend in backends() {
            let mut poller = Poller::new(backend).unwrap();
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poller.register(waker.fd(), Interest::Read).unwrap();

            let w = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                w.wake();
                w.wake(); // double wakes coalesce into one readable pipe
            });
            let mut events = Vec::new();
            let t0 = std::time::Instant::now();
            poller.wait(&mut events, 10_000).unwrap();
            assert!(t0.elapsed() < std::time::Duration::from_secs(5), "{backend:?}: no wake");
            assert!(events.iter().any(|e| e.fd == waker.fd() && e.readable), "{backend:?}");
            // Both wakes must have landed before the drain: the wait above
            // returns on the first, and a second one after the drain is new
            // readiness, not a residue.
            t.join().unwrap();
            waker.drain();
            // Drained: no residual readiness.
            poller.wait(&mut events, 50).unwrap();
            assert!(events.is_empty(), "{backend:?}: waker not drained");
        }
    }
}
