//! Scripted attacker/server endpoints — the remote half of every corpus
//! scenario (the Metasploit handler, RAT C2 servers, web servers).
//!
//! Endpoints are registered as *factories* so a scenario can be built twice
//! (once to record, once to replay) with identical fresh endpoint state.
//! Factories are `Send + Sync` because [`crate::find_sample`] shares one
//! registry across threads: service workers build the same sample's
//! scenario concurrently, each call getting its own endpoint.

use faros_kernel::net::RemoteEndpoint;

/// The attacker machine of the paper's experiments (`169.254.26.161`).
pub const ATTACKER_IP: [u8; 4] = [169, 254, 26, 161];

/// The Metasploit handler port used throughout the paper (`4444`).
pub const HANDLER_PORT: u16 = 4444;

/// A generic web-server address for JIT workloads.
pub const WEB_IP: [u8; 4] = [93, 184, 216, 34];

/// HTTP-ish port for JIT workloads.
pub const WEB_PORT: u16 = 80;

/// Factory producing a fresh endpoint instance per machine build.
///
/// The constructor is `Send + Sync` so a [`crate::Sample`] in the
/// process-wide registry can be built from any worker thread at once.
pub struct EndpointFactory {
    /// Endpoint IP.
    pub ip: [u8; 4],
    /// Endpoint port.
    pub port: u16,
    /// Constructor.
    pub make: Box<dyn Fn() -> Box<dyn RemoteEndpoint> + Send + Sync>,
}

impl std::fmt::Debug for EndpointFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EndpointFactory({}.{}.{}.{}:{})",
            self.ip[0], self.ip[1], self.ip[2], self.ip[3], self.port
        )
    }
}

impl EndpointFactory {
    /// Creates a factory from a closure.
    pub fn new<F, E>(ip: [u8; 4], port: u16, make: F) -> EndpointFactory
    where
        F: Fn() -> E + Send + Sync + 'static,
        E: RemoteEndpoint + 'static,
    {
        EndpointFactory { ip, port, make: Box::new(move || Box::new(make())) }
    }
}

/// Factory for a scheduled *inbound* connection: at `at_tick` the scripted
/// remote dials the guest's listening port (bind-shell style RATs).
///
/// `Send + Sync` for the same reason as [`EndpointFactory`].
pub struct InboundFactory {
    /// Remote (ip, port) the connection appears to come from.
    pub remote: ([u8; 4], u16),
    /// Guest port being dialed.
    pub guest_port: u16,
    /// Virtual tick of the dial.
    pub at_tick: u64,
    /// Endpoint constructor.
    pub make: Box<dyn Fn() -> Box<dyn RemoteEndpoint> + Send + Sync>,
}

impl std::fmt::Debug for InboundFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InboundFactory({:?} -> :{} @ {})",
            self.remote, self.guest_port, self.at_tick
        )
    }
}

impl InboundFactory {
    /// Creates a factory from a closure.
    pub fn new<F, E>(
        remote: ([u8; 4], u16),
        guest_port: u16,
        at_tick: u64,
        make: F,
    ) -> InboundFactory
    where
        F: Fn() -> E + Send + Sync + 'static,
        E: RemoteEndpoint + 'static,
    {
        InboundFactory { remote, guest_port, at_tick, make: Box::new(move || Box::new(make())) }
    }
}

/// The Metasploit-handler stand-in: waits for the loader's `RDY`, then
/// serves the staged payload in one chunk.
#[derive(Debug)]
pub struct PayloadHandler {
    payload: Vec<u8>,
}

impl PayloadHandler {
    /// Creates a handler serving `payload`.
    pub fn new(payload: Vec<u8>) -> PayloadHandler {
        PayloadHandler { payload }
    }
}

impl RemoteEndpoint for PayloadHandler {
    fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        if data.starts_with(b"RDY") {
            vec![self.payload.clone()]
        } else {
            Vec::new()
        }
    }
}

/// A RAT command-and-control stand-in: greets on connect, then walks a
/// scripted command list, advancing one command per client message.
#[derive(Debug)]
pub struct C2Server {
    commands: Vec<Vec<u8>>,
    next: usize,
}

impl C2Server {
    /// Creates a C2 issuing the given command sequence.
    pub fn new(commands: Vec<Vec<u8>>) -> C2Server {
        C2Server { commands, next: 0 }
    }
}

impl RemoteEndpoint for C2Server {
    fn on_connect(&mut self) -> Vec<Vec<u8>> {
        vec![b"HELO".to_vec()]
    }

    fn on_data(&mut self, _data: &[u8]) -> Vec<Vec<u8>> {
        if self.next < self.commands.len() {
            let cmd = self.commands[self.next].clone();
            self.next += 1;
            vec![cmd]
        } else {
            vec![b"BYE!".to_vec()]
        }
    }
}

/// A web server for the JIT workloads: answers `GET <name>` with a
/// deterministic pseudo-bytecode blob derived from the name.
#[derive(Debug)]
pub struct BytecodeServer {
    blob_len: usize,
}

impl BytecodeServer {
    /// Creates a server producing `blob_len`-byte responses.
    pub fn new(blob_len: usize) -> BytecodeServer {
        BytecodeServer { blob_len }
    }

    /// The deterministic blob served for `name` (exposed so tests can check
    /// delivery).
    pub fn blob_for(name: &[u8], len: usize) -> Vec<u8> {
        // Simple deterministic keystream seeded by the name (SplitMix-ish).
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        for &b in name {
            state = state.wrapping_add(b as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        (0..len)
            .map(|i| {
                state ^= state >> 30;
                state = state.wrapping_mul(0x94d0_49bb_1331_11eb);
                state ^= state >> 27;
                (state.wrapping_add(i as u64) >> 16) as u8
            })
            .collect()
    }
}

impl RemoteEndpoint for BytecodeServer {
    fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        if let Some(name) = data.strip_prefix(b"GET ") {
            vec![Self::blob_for(name, self.blob_len)]
        } else {
            Vec::new()
        }
    }
}

/// A file-drop server: streams a fixed blob on request, used by download /
/// file-transfer behaviours.
#[derive(Debug)]
pub struct BlobServer {
    blob: Vec<u8>,
}

impl BlobServer {
    /// Creates a server serving `blob`.
    pub fn new(blob: Vec<u8>) -> BlobServer {
        BlobServer { blob }
    }
}

impl RemoteEndpoint for BlobServer {
    fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        if data.starts_with(b"PULL") {
            // Download request.
            vec![self.blob.clone()]
        } else if data.starts_with(b"SHELL") {
            // Remote-shell poll: issue a command.
            vec![b"dir C:/".to_vec()]
        } else if data.first() == Some(&0x7f) {
            // A streamed screen frame: acknowledge with an input event.
            vec![b"ACK!".to_vec()]
        } else {
            // Exfiltrated data (uploads, file transfers): consumed silently.
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_handler_waits_for_ready() {
        let mut h = PayloadHandler::new(vec![1, 2, 3]);
        assert!(h.on_data(b"garbage").is_empty());
        assert_eq!(h.on_data(b"RDY"), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn c2_walks_command_script() {
        let mut c2 = C2Server::new(vec![b"CMD1".to_vec(), b"CMD2".to_vec()]);
        assert_eq!(c2.on_connect(), vec![b"HELO".to_vec()]);
        assert_eq!(c2.on_data(b"ok"), vec![b"CMD1".to_vec()]);
        assert_eq!(c2.on_data(b"ok"), vec![b"CMD2".to_vec()]);
        assert_eq!(c2.on_data(b"ok"), vec![b"BYE!".to_vec()]);
    }

    #[test]
    fn bytecode_blob_is_deterministic_and_name_dependent() {
        let a1 = BytecodeServer::blob_for(b"acceleration", 64);
        let a2 = BytecodeServer::blob_for(b"acceleration", 64);
        let b = BytecodeServer::blob_for(b"equilibrium", 64);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 64);
    }

    #[test]
    fn blob_server_distinguishes_request_kinds() {
        let mut s = BlobServer::new(vec![9; 8]);
        assert_eq!(s.on_data(b"PULL"), vec![vec![9; 8]]);
        assert_eq!(s.on_data(b"SHELL"), vec![b"dir C:/".to_vec()]);
        assert_eq!(s.on_data(&[0x7f, 0x7f]), vec![b"ACK!".to_vec()]);
        assert!(s.on_data(b"exfil-data").is_empty(), "uploads are silent");
    }
}
