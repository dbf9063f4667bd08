//! Known-bad DET-1 fixture for a daemon core: it reads the clock, owns a
//! socket and prints, all of which belong to the daemon's shell.

use std::net::UdpSocket;
use std::time::Instant;

pub struct Core {
    socket: UdpSocket,
    frames: u64,
}

impl Core {
    pub fn step(&mut self, frames: Vec<Vec<u8>>) -> std::io::Result<()> {
        let started = Instant::now();
        for frame in &frames {
            self.socket.send(frame)?;
        }
        self.frames += frames.len() as u64;
        eprintln!("burst took {:?}", started.elapsed());
        Ok(())
    }
}
