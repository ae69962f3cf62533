//! Streaming SMTP analyzer.
//!
//! The paper's email analysis (§5.1.2) is transport-level (durations, flow
//! sizes, success rates); we additionally parse the command dialogue so
//! the generator's SMTP sessions are verified to be structurally real —
//! envelope exchanges followed by a unidirectional DATA transfer whose
//! time scales with RTT, which is what produces the paper's order-of-
//! magnitude internal/WAN duration split.

use crate::StreamPair;

/// SMTP commands tracked by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// HELO/EHLO.
    Hello,
    /// MAIL FROM.
    MailFrom,
    /// RCPT TO.
    RcptTo,
    /// DATA.
    Data,
    /// QUIT.
    Quit,
    /// RSET.
    Rset,
    /// Anything else.
    Other,
}

impl Command {
    fn parse(line: &str) -> Command {
        let up = line.trim().to_ascii_uppercase();
        if up.starts_with("HELO") || up.starts_with("EHLO") {
            Command::Hello
        } else if up.starts_with("MAIL FROM") {
            Command::MailFrom
        } else if up.starts_with("RCPT TO") {
            Command::RcptTo
        } else if up.starts_with("DATA") {
            Command::Data
        } else if up.starts_with("QUIT") {
            Command::Quit
        } else if up.starts_with("RSET") {
            Command::Rset
        } else {
            Command::Other
        }
    }
}

/// Summary of one SMTP session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmtpSession {
    /// Commands observed, in order.
    pub commands: Vec<Command>,
    /// Number of accepted messages (DATA terminated with 250).
    pub messages: u32,
    /// Total message payload bytes (between DATA and the dot terminator).
    pub message_bytes: u64,
    /// Number of recipients across all messages.
    pub recipients: u32,
    /// Server greeted with a 2xx banner.
    pub greeted: bool,
}

#[derive(Debug, Default)]
enum State {
    #[default]
    Command,
    Body,
}

/// Incremental SMTP analyzer fed client and server stream bytes.
#[derive(Debug, Default)]
pub struct SmtpAnalyzer {
    streams: StreamPair,
    state: State,
    session: SmtpSession,
    body_bytes: u64,
}

impl SmtpAnalyzer {
    /// New analyzer for one connection.
    pub fn new() -> SmtpAnalyzer {
        SmtpAnalyzer::default()
    }

    /// Feed client→server bytes.
    pub fn feed_client(&mut self, data: &[u8]) {
        self.streams.dir(true).feed(data, |u| {
            match self.state {
                State::Command => {
                    let cmd = Command::parse(&String::from_utf8_lossy(u.until(b"\r\n")?));
                    self.session.commands.push(cmd);
                    match cmd {
                        Command::RcptTo => self.session.recipients += 1,
                        Command::Data => {
                            self.state = State::Body;
                            self.body_bytes = 0;
                        }
                        _ => {}
                    }
                }
                // The message runs to the dot terminator line; what cannot
                // begin it is counted and dropped as it goes by.
                State::Body => match u.until(b"\r\n.\r\n") {
                    Some(rest) => {
                        self.session.messages += 1;
                        self.session.message_bytes += self.body_bytes + rest.len() as u64;
                        self.state = State::Command;
                    }
                    None => {
                        self.body_bytes += u.take_searched() as u64;
                        return None;
                    }
                },
            }
            Some(())
        });
    }

    /// Feed server→client bytes.
    pub fn feed_server(&mut self, data: &[u8]) {
        self.streams.dir(false).feed(data, |u| {
            if u.until(b"\r\n")?.starts_with(b"220") {
                self.session.greeted = true;
            }
            Some(())
        });
    }

    /// Announce a capture gap in the given direction.
    pub fn gap(&mut self, from_client: bool) {
        self.streams.gap(from_client);
    }

    /// The session summary so far.
    pub fn session(&self) -> &SmtpSession {
        &self.session
    }
}

/// Encode a full client-side SMTP dialogue for a message of `body_len`
/// bytes to `rcpts` recipients. Returns (client chunks, server chunks) in
/// alternating exchange order.
pub fn encode_session(body_len: usize, rcpts: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut client: Vec<Vec<u8>> = Vec::new();
    let mut server: Vec<Vec<u8>> = vec![b"220 smtp.lbl.gov ESMTP\r\n".to_vec()];
    client.push(b"EHLO client.lbl.gov\r\n".to_vec());
    server.push(b"250-smtp.lbl.gov\r\n250 8BITMIME\r\n".to_vec());
    client.push(b"MAIL FROM:<user@lbl.gov>\r\n".to_vec());
    server.push(b"250 ok\r\n".to_vec());
    for i in 0..rcpts {
        client.push(format!("RCPT TO:<rcpt{i}@lbl.gov>\r\n").into_bytes());
        server.push(b"250 ok\r\n".to_vec());
    }
    client.push(b"DATA\r\n".to_vec());
    server.push(b"354 go ahead\r\n".to_vec());
    let mut body = Vec::with_capacity(body_len + 5);
    body.extend(std::iter::repeat_n(b'm', body_len));
    body.extend_from_slice(b"\r\n.\r\n");
    client.push(body);
    server.push(b"250 accepted\r\n".to_vec());
    client.push(b"QUIT\r\n".to_vec());
    server.push(b"221 bye\r\n".to_vec());
    (client, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_session_parsed() {
        let (client, server) = encode_session(1000, 2);
        let mut a = SmtpAnalyzer::new();
        for c in &server {
            a.feed_server(c);
        }
        for c in &client {
            a.feed_client(c);
        }
        let s = a.session();
        assert!(s.greeted);
        assert_eq!(s.messages, 1);
        assert_eq!(s.recipients, 2);
        assert_eq!(s.message_bytes, 1000);
        assert!(s.commands.contains(&Command::Hello));
        assert!(s.commands.contains(&Command::Quit));
    }

    #[test]
    fn body_split_across_chunks() {
        let (client, _) = encode_session(5000, 1);
        let mut a = SmtpAnalyzer::new();
        let all: Vec<u8> = client.concat();
        for chunk in all.chunks(13) {
            a.feed_client(chunk);
        }
        assert_eq!(a.session().messages, 1);
        assert_eq!(a.session().message_bytes, 5000);
    }

    #[test]
    fn command_classification() {
        assert_eq!(Command::parse("ehlo x"), Command::Hello);
        assert_eq!(Command::parse("MAIL FROM:<a@b>"), Command::MailFrom);
        assert_eq!(Command::parse("NOOP"), Command::Other);
    }

    #[test]
    fn multiple_messages_per_session() {
        let mut a = SmtpAnalyzer::new();
        for _ in 0..3 {
            let (client, _) = encode_session(10, 1);
            for c in &client {
                a.feed_client(c);
            }
        }
        assert_eq!(a.session().messages, 3);
        assert_eq!(a.session().message_bytes, 30);
    }
}
