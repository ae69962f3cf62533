//! Minimal IMAP4 dialogue analyzer.
//!
//! Most enterprise IMAP in the traces is IMAP-over-SSL (the site forced
//! the D0→D1 transition the paper notes in Table 8), analyzed only at the
//! transport level. Cleartext IMAP4 (D0) is parsed here: tagged commands
//! and the poll-style session structure (periodic NOOP/CHECK) that gives
//! internal IMAP connections their long durations (Figure 5b).
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::StreamPair;

/// IMAP commands of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// LOGIN.
    Login,
    /// SELECT/EXAMINE.
    Select,
    /// FETCH.
    Fetch,
    /// NOOP / CHECK (polling).
    Poll,
    /// IDLE.
    Idle,
    /// LOGOUT.
    Logout,
    /// Anything else.
    Other,
}

impl Command {
    fn parse(verb: &str) -> Command {
        match verb.to_ascii_uppercase().as_str() {
            "LOGIN" => Command::Login,
            "SELECT" | "EXAMINE" => Command::Select,
            "FETCH" | "UID" => Command::Fetch,
            "NOOP" | "CHECK" => Command::Poll,
            "IDLE" => Command::Idle,
            "LOGOUT" => Command::Logout,
            _ => Command::Other,
        }
    }
}

/// Summary of one IMAP session's command mix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImapSession {
    /// Commands in order of appearance.
    pub commands: Vec<Command>,
    /// Number of polling commands (NOOP/CHECK) — the periodic client
    /// behavior behind the paper's ~10-minute poll observation.
    pub polls: u32,
    /// Fetches issued.
    pub fetches: u32,
}

/// Incremental IMAP client-stream analyzer.
#[derive(Debug, Default)]
pub struct ImapAnalyzer {
    streams: StreamPair,
    session: ImapSession,
}

impl ImapAnalyzer {
    /// New analyzer.
    pub fn new() -> ImapAnalyzer {
        ImapAnalyzer::default()
    }

    /// Feed client→server bytes.
    pub fn feed_client(&mut self, data: &[u8]) {
        self.streams.dir(true).feed(data, |u| {
            let line = String::from_utf8_lossy(u.until(b"\r\n")?);
            // "a001 SELECT INBOX" — tag, then verb.
            if let Some(verb) = line.split_whitespace().nth(1) {
                let cmd = Command::parse(verb);
                match cmd {
                    Command::Poll => self.session.polls = self.session.polls.saturating_add(1),
                    Command::Fetch => self.session.fetches = self.session.fetches.saturating_add(1),
                    _ => {}
                }
                self.session.commands.push(cmd);
            }
            Some(())
        });
    }

    /// Announce a capture gap (only the client direction is ever read).
    pub fn gap(&mut self, from_client: bool) {
        self.streams.gap(from_client);
    }

    /// The session summary so far.
    pub fn session(&self) -> &ImapSession {
        &self.session
    }
}

/// Encode a polling IMAP session: login, select, then `polls` NOOPs and
/// `fetches` fetches.
pub fn encode_client_session(polls: u32, fetches: u32) -> Vec<u8> {
    let mut s = String::from("a001 LOGIN user pass\r\na002 SELECT INBOX\r\n");
    let mut tag = 3u32;
    for _ in 0..polls {
        s.push_str(&format!("a{tag:03} NOOP\r\n"));
        tag = tag.saturating_add(1);
    }
    for i in 1..=fetches {
        s.push_str(&format!("a{tag:03} FETCH {i} (RFC822)\r\n"));
        tag = tag.saturating_add(1);
    }
    s.push_str(&format!("a{tag:03} LOGOUT\r\n"));
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_roundtrip() {
        let bytes = encode_client_session(5, 2);
        let mut a = ImapAnalyzer::new();
        for chunk in bytes.chunks(9) {
            a.feed_client(chunk);
        }
        let s = a.session();
        assert_eq!(s.polls, 5);
        assert_eq!(s.fetches, 2);
        assert_eq!(s.commands.first(), Some(&Command::Login));
        assert_eq!(s.commands.last(), Some(&Command::Logout));
    }

    #[test]
    fn verb_classification() {
        assert_eq!(Command::parse("examine"), Command::Select);
        assert_eq!(Command::parse("CHECK"), Command::Poll);
        assert_eq!(Command::parse("CAPABILITY"), Command::Other);
    }
}
