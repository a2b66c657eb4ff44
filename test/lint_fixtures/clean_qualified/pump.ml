let port () = 9
